package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stamp"
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
// surface reads them from an outcome. Records are written by
// encoding/json and read back by CellRecord.UnmarshalJSON.

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

// UnmarshalJSON decodes one record. The canonical form — the exact bytes
// json.Marshal and json.Encoder write for a record: fields in
// declaration order, no whitespace, ASCII strings without escapes,
// trace_name and bank_bus present or absent as omitempty writes them —
// decodes in one pass without reflection. Any other input goes to
// encoding/json, so the method accepts exactly what encoding/json
// accepts and yields the same record (FuzzCellRecordJSON holds the two
// paths to that).
func (r *CellRecord) UnmarshalJSON(data []byte) error {
	if r.decodeCanonical(data) {
		return nil
	}
	return json.Unmarshal(data, (*plainCellRecord)(r))
}

// plainCellRecord is CellRecord without its methods, so encoding/json
// decodes it by reflection instead of calling UnmarshalJSON again.
type plainCellRecord CellRecord

// decodeCanonical decodes data into r and reports true if data is a
// record in the canonical form; otherwise it leaves r untouched. Like
// encoding/json, it overwrites every field the input names and keeps
// the omitted omitempty ones.
func (r *CellRecord) decodeCanonical(data []byte) bool {
	rec := *r
	d := recordDecoder{b: data, ok: true}
	d.cell(&rec.Cell, `{"cell":`)
	d.run(&rec.Ungated, `,"ungated":`)
	d.run(&rec.Gated, `,"gated":`)
	d.comparison(&rec.Comparison, `,"comparison":`)
	d.lit(`}`)
	if !d.ok || d.i != len(d.b) {
		return false
	}
	*r = rec
	return true
}

// recordDecoder reads the canonical form of a CellRecord. Each reader
// takes the literal that precedes its value — the key with its
// separators, or "" for an array element — and expects both at the
// cursor. The first mismatch clears ok, after which every reader is a
// no-op returning zero, so a decode reads as the record's field list.
type recordDecoder struct {
	b  []byte
	i  int
	ok bool
}

// opt consumes s if it comes next and reports whether it did.
func (d *recordDecoder) opt(s string) bool {
	if d.ok && len(d.b)-d.i >= len(s) && string(d.b[d.i:d.i+len(s)]) == s {
		d.i += len(s)
		return true
	}
	return false
}

// lit consumes s, which must come next.
func (d *recordDecoder) lit(s string) {
	if !d.opt(s) {
		d.ok = false
	}
}

// digits consumes a run of decimal digits and returns its length and
// value, which wraps past 19 digits.
func (d *recordDecoder) digits() (n int, v uint64) {
	start := d.i
	for ; d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9'; d.i++ {
		v = v*10 + uint64(d.b[d.i]-'0')
	}
	return d.i - start, v
}

// uint reads an unsigned integer: "0" or digits without a leading zero,
// in uint64 range.
func (d *recordDecoder) uint(prefix string) uint64 {
	d.lit(prefix)
	if !d.ok {
		return 0
	}
	start := d.i
	n, v := d.digits()
	switch {
	case n == 0 || n > 1 && d.b[start] == '0':
		d.ok = false
	case n > 19: // 19 digits cannot overflow; more may have
		var err error
		if v, err = strconv.ParseUint(string(d.b[start:d.i]), 10, 64); err != nil {
			d.ok = false
		}
	}
	return v
}

// int64 reads a signed integer in int64 range.
func (d *recordDecoder) int64(prefix string) int64 {
	d.lit(prefix)
	neg := d.opt("-")
	u := d.uint("")
	switch {
	case neg && u <= 1<<63:
		return int64(-u)
	case !neg && u <= math.MaxInt64:
		return int64(u)
	}
	d.ok = false
	return 0
}

// int reads a signed integer in int range.
func (d *recordDecoder) int(prefix string) int {
	v := d.int64(prefix)
	if int64(int(v)) != v {
		d.ok = false
		return 0
	}
	return int(v)
}

// float reads a JSON number and parses it as encoding/json does.
func (d *recordDecoder) float(prefix string) float64 {
	d.lit(prefix)
	if !d.ok {
		return 0
	}
	start := d.i
	d.opt("-")
	if n, _ := d.digits(); n == 0 || n > 1 && d.b[d.i-n] == '0' {
		d.ok = false
	}
	if d.opt(".") {
		if n, _ := d.digits(); n == 0 {
			d.ok = false
		}
	}
	if d.opt("e") || d.opt("E") {
		if !d.opt("+") {
			d.opt("-")
		}
		if n, _ := d.digits(); n == 0 {
			d.ok = false
		}
	}
	if !d.ok {
		return 0
	}
	v, err := strconv.ParseFloat(string(d.b[start:d.i]), 64)
	if err != nil {
		d.ok = false
	}
	return v
}

// str reads an ASCII string without escapes.
func (d *recordDecoder) str(prefix string) string {
	d.lit(prefix)
	d.lit(`"`)
	if !d.ok {
		return ""
	}
	start := d.i
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			return string(d.b[start : d.i-1])
		case c < ' ' || c == '\\' || c >= utf8.RuneSelf:
			d.ok = false
			return ""
		}
	}
	d.ok = false
	return ""
}

// bool reads true or false.
func (d *recordDecoder) bool(prefix string) bool {
	d.lit(prefix)
	if d.opt("true") {
		return true
	}
	d.lit("false")
	return false
}

// list reads an array, calling elem once per element.
func (d *recordDecoder) list(prefix string, elem func()) {
	d.lit(prefix)
	d.lit("[")
	if d.opt("]") {
		return
	}
	for elem(); d.opt(","); {
		elem()
	}
	d.lit("]")
}

func (d *recordDecoder) cell(c *Cell, prefix string) {
	d.lit(prefix)
	c.Index = d.int(`{"Index":`)
	c.ID = d.str(`,"ID":`)
	c.App = stamp.App(d.str(`,"App":`))
	c.Processors = d.int(`,"Processors":`)
	c.W0 = sim.Time(d.int64(`,"W0":`))
	c.Contention = Contention(d.str(`,"Contention":`))
	c.Banks = d.int(`,"Banks":`)
	c.Topology = d.str(`,"Topology":`)
	c.Tech = d.str(`,"Tech":`)
	c.Seed = d.uint(`,"Seed":`)
	c.Variant = d.str(`,"Variant":`)
	d.lit(`}`)
}

func (d *recordDecoder) run(rr *RunRecord, prefix string) {
	d.lit(prefix)
	rr.Cycles = sim.Time(d.int64(`{"cycles":`))
	d.counters(&rr.Counters, `,"counters":`)
	rr.Residency = [][stats.NumStates]sim.Time{}
	d.list(`,"residency":`, func() {
		var row [stats.NumStates]sim.Time
		d.lit("[")
		for s := range row {
			if s > 0 {
				d.lit(",")
			}
			row[s] = sim.Time(d.int64(""))
		}
		d.lit("]")
		rr.Residency = append(rr.Residency, row)
	})
	if d.opt(`,"trace_name":`) {
		rr.TraceName = d.str("")
	}
	rr.Gated = d.bool(`,"gated":`)
	d.busStats(&rr.Bus, `,"bus":`)
	if d.opt(`,"bank_bus":`) {
		rr.BankBus = []bus.Stats{}
		d.list("", func() {
			var s bus.Stats
			d.busStats(&s, "")
			rr.BankBus = append(rr.BankBus, s)
		})
	}
	d.lit(`}`)
}

func (d *recordDecoder) counters(c *stats.Counters, prefix string) {
	d.lit(prefix)
	c.Commits = d.uint(`{"Commits":`)
	c.Aborts = d.uint(`,"Aborts":`)
	c.ValidationAborts = d.uint(`,"ValidationAborts":`)
	c.SelfAborts = d.uint(`,"SelfAborts":`)
	c.Gatings = d.uint(`,"Gatings":`)
	c.Renewals = d.uint(`,"Renewals":`)
	c.Ungates = d.uint(`,"Ungates":`)
	c.TxInfoRequests = d.uint(`,"TxInfoRequests":`)
	c.TokenRequests = d.uint(`,"TokenRequests":`)
	c.Invalidations = d.uint(`,"Invalidations":`)
	c.Overflows = d.uint(`,"Overflows":`)
	d.lit(`}`)
}

func (d *recordDecoder) busStats(s *bus.Stats, prefix string) {
	d.lit(prefix)
	s.Messages = d.uint(`{"Messages":`)
	s.BusyCycles = d.uint(`,"BusyCycles":`)
	s.WaitCycles = d.uint(`,"WaitCycles":`)
	s.Rounds = d.uint(`,"Rounds":`)
	d.lit(`}`)
}

func (d *recordDecoder) comparison(c *power.Comparison, prefix string) {
	d.lit(prefix)
	c.N1 = sim.Time(d.int64(`{"N1":`))
	c.N2 = sim.Time(d.int64(`,"N2":`))
	c.Eug = d.float(`,"Eug":`)
	c.Eg = d.float(`,"Eg":`)
	c.Pug = d.float(`,"Pug":`)
	c.Pg = d.float(`,"Pg":`)
	c.EnergyRatio = d.float(`,"EnergyRatio":`)
	c.AvgPowerRatio = d.float(`,"AvgPowerRatio":`)
	c.SpeedUp = d.float(`,"SpeedUp":`)
	c.EnergySavings = d.float(`,"EnergySavings":`)
	c.PowerSavings = d.float(`,"PowerSavings":`)
	c.TimeReduction = d.float(`,"TimeReduction":`)
	d.lit(`}`)
}
