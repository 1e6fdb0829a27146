package experiments

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tcc"
)

// This file defines the serializable form of a completed cell — the one
// wire format shared by the JSONL checkpoint sink (checkpoint.go) and the
// distributed campaign fabric (internal/dist). A record holds the fields
// every sweep on the session reads: the comparison, both runs' cycle,
// counter and interconnect-stat sets, and the per-processor residency
// totals the energy model reduces a ledger to (so re-pricing sweeps like
// the SRPG ablation work on restored results). Integers and
// shortest-form floats round-trip through JSON exactly, and energy is a
// function of the integer residency totals alone, so a restored
// outcome's campaign output — reports, CSV, per-bank stat columns — is
// byte-identical to the freshly simulated one. Per-processor, cache and
// directory breakdowns are not persisted: nothing on the campaign
// surface reads them from an outcome.

// RunRecord is the serializable slice of one tcc.Result the campaign
// outputs depend on. Residency carries the ledger's whole-run per-state
// totals: the energy model reduces a ledger to exactly these integers,
// so a ledger restored from them re-prices (e.g. under the SRPG
// ablation's models) bit-identically to the original. Bus and BankBus
// carry the interconnect counters the CSV's bus/bank columns render.
type RunRecord struct {
	Cycles    sim.Time                    `json:"cycles"`
	Counters  stats.Counters              `json:"counters"`
	Residency [][stats.NumStates]sim.Time `json:"residency"`
	TraceName string                      `json:"trace_name,omitempty"`
	Gated     bool                        `json:"gated"`
	Bus       bus.Stats                   `json:"bus"`
	BankBus   []bus.Stats                 `json:"bank_bus,omitempty"`
}

// NewRunRecord captures the serializable slice of one run result.
func NewRunRecord(r *tcc.Result) RunRecord {
	return RunRecord{
		Cycles:    r.Cycles,
		Counters:  r.Counters,
		Residency: r.Ledger.ResidencyTotals(),
		TraceName: r.TraceName,
		Gated:     r.Gated,
		Bus:       r.BusStats,
		BankBus:   r.BankStats,
	}
}

// Result restores the run result the record was captured from, up to the
// fields the campaign surface reads.
func (rr RunRecord) Result() *tcc.Result {
	return &tcc.Result{
		Cycles:    rr.Cycles,
		Counters:  rr.Counters,
		Ledger:    stats.RestoreLedger(rr.Residency, rr.Cycles),
		TraceName: rr.TraceName,
		Gated:     rr.Gated,
		BusStats:  rr.Bus,
		BankStats: rr.BankBus,
	}
}

// CellRecord is the serializable form of one completed cell: the cell
// itself plus both runs and their §IV comparison. It is the payload of
// one checkpoint JSONL line and of one distributed worker return.
type CellRecord struct {
	Cell       Cell             `json:"cell"`
	Ungated    RunRecord        `json:"ungated"`
	Gated      RunRecord        `json:"gated"`
	Comparison power.Comparison `json:"comparison"`
}

// NewCellRecord captures one completed cell for the wire or the
// checkpoint file.
func NewCellRecord(c Cell, out *core.Outcome) CellRecord {
	return CellRecord{
		Cell:       c,
		Ungated:    NewRunRecord(out.Ungated),
		Gated:      NewRunRecord(out.Gated),
		Comparison: out.Comparison,
	}
}

// Validate checks that the record's residency partitions each run's
// cycles: each run has one residency row per processor of the cell, no
// entry is negative, and every row sums to that run's Cycles. A restored
// ledger is nothing but these totals, so a record from outside this
// process — a journal line, a worker's return — must pass before it is
// restored.
func (r CellRecord) Validate() error {
	for _, run := range []struct {
		name string
		rr   RunRecord
	}{{"ungated", r.Ungated}, {"gated", r.Gated}} {
		if len(run.rr.Residency) != r.Cell.Processors {
			return fmt.Errorf("experiments: %s run has %d residency rows for %d processors",
				run.name, len(run.rr.Residency), r.Cell.Processors)
		}
		for p, row := range run.rr.Residency {
			left := run.rr.Cycles // subtracting, so no sum can overflow
			for _, c := range row {
				if c < 0 || c > left {
					left = -1
					break
				}
				left -= c
			}
			if left != 0 {
				return fmt.Errorf("experiments: %s run processor %d residency %v does not partition %d cycles",
					run.name, p, row, run.rr.Cycles)
			}
		}
	}
	return nil
}

// Outcome restores the paired-run outcome the record was captured from.
func (r CellRecord) Outcome() *core.Outcome {
	return &core.Outcome{
		Spec: core.RunSpec{
			App:        r.Cell.App,
			Processors: r.Cell.Processors,
			W0:         r.Cell.W0,
			Seed:       r.Cell.Seed,
		},
		Ungated:    r.Ungated.Result(),
		Gated:      r.Gated.Result(),
		Comparison: r.Comparison,
	}
}

// Key identifies the cell for result deduplication: exactly the fields
// that change what the cell computes (see cellKey). Both the checkpoint
// sink and the distributed coordinator dedup returned results by this
// key — two sweeps (or two workers) that computed the same paired run
// share one record.
func (c Cell) Key() string { return cellKey(c) }
