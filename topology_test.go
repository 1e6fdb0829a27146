// Timing pins for every interconnect shape. The degenerate shapes (banks=1,
// a 1×1 mesh, a 1-node ring) are pinned byte-identical to the single bus
// by the done-set equivalence harness (doneset_test.go); this file pins
// the cycle counts and interconnect counters of one 64-processor cell on
// the single bus and each wider shape, with the exact work of each run
// (work_test.go), so a timing change on any of them fails the tier-1
// suite and not only the bench goldens.
package clockgate

import (
	"context"
	"strings"
	"testing"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// topologyPin is one shape's recorded outcome: its count of independent
// resources (banks, links or ports), the ungated and gated cycle counts,
// the gated run's aggregate interconnect counters and the work of each
// run, ungated first.
type topologyPin struct {
	name     string
	banks    int
	topology string
	links    int
	ungated  int64
	gated    int64
	bus      bus.Stats
	work     [2]work
}

// TestTopologyDoneCasesRun executes one intruder cell at 64 processors and
// reduced scale on the single bus, the 4-banked bus and every fabric kind
// of the topology matrix block. Each cell must reproduce its recorded
// cycle counts, gated interconnect counters and exact work, carry one
// stat entry per bank, link or port, and the fabrics must render their
// shape in the CSV.
func TestTopologyDoneCasesRun(t *testing.T) {
	pins := []topologyPin{
		{"bus", 0, "", 1, 53196, 54540, bus.Stats{Messages: 8348, BusyCycles: 16696, WaitCycles: 76489, Rounds: 4532},
			[2]work{{20968, 7930, 4110}, {22883, 8348, 4532}}},
		{"banks=4", 4, "", 4, 55199, 56873, bus.Stats{Messages: 8824, BusyCycles: 17646, WaitCycles: 28900, Rounds: 5728},
			[2]work{{20675, 8030, 4995}, {23751, 8824, 5728}}},
		{"xbar", 0, "xbar", 64, 55186, 54580, bus.Stats{Messages: 8157, BusyCycles: 16314, WaitCycles: 2405, Rounds: 8157},
			[2]work{{16434, 7907, 7907}, {17828, 8157, 8157}}},
		{"mesh", 0, "mesh", 288, 55854, 62794, bus.Stats{Messages: 59225, BusyCycles: 118448, WaitCycles: 18906, Rounds: 56225},
			[2]work{{108041, 51036, 48178}, {126425, 59225, 56225}}},
		{"ring", 0, "ring", 192, 65158, 61524, bus.Stats{Messages: 151029, BusyCycles: 302054, WaitCycles: 20245, Rounds: 147554},
			[2]work{{288528, 141429, 137901}, {308966, 151029, 147554}}},
	}
	if got := MatrixTopologies(); len(got) != 3 || got[0] != "xbar" || got[1] != "mesh" || got[2] != "ring" {
		t.Fatalf("matrix topologies %v, want the pinned xbar, mesh, ring", got)
	}

	opts := DefaultCampaignOptions()
	opts.Scale = 0.01
	session := NewSession(opts)
	defer session.Close()

	var cells []Cell
	for _, p := range pins {
		cells = append(cells, Cell{
			Index: len(cells), App: Intruder, Processors: 64,
			Banks: p.banks, Topology: p.topology, Seed: opts.Seed,
		})
	}
	outs, err := session.RunCells(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range outs {
		p := pins[i]
		if int64(out.Ungated.Cycles) != p.ungated || int64(out.Gated.Cycles) != p.gated {
			t.Errorf("%s: cycles ungated %d gated %d, want %d and %d",
				p.name, out.Ungated.Cycles, out.Gated.Cycles, p.ungated, p.gated)
		}
		if out.Gated.BusStats != p.bus {
			t.Errorf("%s: gated interconnect stats %+v, want %+v", p.name, out.Gated.BusStats, p.bus)
		}
		if len(out.Gated.BankStats) != p.links {
			t.Errorf("%s: %d per-resource stat entries, want %d", p.name, len(out.Gated.BankStats), p.links)
		}
	}
	tr, err := GenerateTraceScaled(Intruder, 64, opts.Seed, opts.Scale)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pins {
		rs := core.RunSpec{App: Intruder, Processors: 64, Seed: opts.Seed, Configure: func(c *Config) {
			c.Machine.Banks = p.banks
			c.Machine.Topology = p.topology
		}}
		if got := runWork(t, rs, tr); got != p.work {
			t.Errorf("%s: work %+v, want %+v", p.name, got, p.work)
		}
	}
	campaign := &Campaign{Options: opts, Cells: cells, Outcomes: outs}
	var buf strings.Builder
	if err := campaign.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	for _, topo := range MatrixTopologies() {
		if !strings.Contains(buf.String(), ","+topo) {
			t.Errorf("CSV lacks topology column value %q", topo)
		}
	}
}

// TestLedgerConservationPerShape checks the residency ledger against the
// run itself, independently of any golden: one small intruder cell per
// interconnect shape, ungated and gated, with the event recorder on. Each
// processor's totals must partition the run's cycles, and folding the
// recorded power-state events into segments must reduce to exactly the
// ledger's totals.
func TestLedgerConservationPerShape(t *testing.T) {
	const procs = 16
	tr, err := GenerateTraceScaled(Intruder, procs, 42, e2eScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range []struct {
		name     string
		banks    int
		topology string
	}{{"bus", 0, ""}, {"banks=4", 4, ""}, {"xbar", 0, "xbar"}, {"mesh", 0, "mesh"}, {"ring", 0, "ring"}} {
		for _, gated := range []bool{false, true} {
			rec := NewEventRecorder()
			res, err := RunSingleWithEvents(Experiment{
				Trace: tr, Processors: procs, Seed: 42,
				Configure: func(c *Config) {
					c.Machine.Banks = shape.banks
					c.Machine.Topology = shape.topology
				},
			}, gated, rec)
			if err != nil {
				t.Fatalf("%s gated=%v: %v", shape.name, gated, err)
			}
			totals := res.Ledger.ResidencyTotals()
			if len(totals) != procs || res.Ledger.End() != res.Cycles {
				t.Fatalf("%s gated=%v: %d residency rows ending at %d, want %d ending at %d",
					shape.name, gated, len(totals), res.Ledger.End(), procs, res.Cycles)
			}
			for p, segs := range trace.Segments(rec.Events(), procs, res.Cycles) {
				var folded [stats.NumStates]sim.Time
				for _, seg := range segs {
					folded[seg.State] += seg.To - seg.From
				}
				var sum sim.Time
				for _, c := range totals[p] {
					sum += c
				}
				if sum != res.Cycles || folded != totals[p] {
					t.Errorf("%s gated=%v proc %d: ledger totals %v sum to %d, folded events give %v, run %d cycles",
						shape.name, gated, p, totals[p], sum, folded, res.Cycles)
				}
			}
		}
	}
}
