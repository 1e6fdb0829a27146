package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/bus"
	"repro/internal/energy"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tcc"
)

// csvHeader is the per-configuration CSV schema. The interconnect
// columns render the gated run's bus activity: bus_util is busy-cycles
// over elapsed wire-capacity cycles (cycles × bank count), and the
// bank_* columns break utilization, queueing wait and grant rounds down
// per bank (";"-joined, one value per bank; a single entry on the
// unbanked bus) — the figure-grade data behind banked interconnect
// studies. The energy block after the savings columns breaks the gated
// run's energy down per residency state (eg_run..eg_gated sum to eg)
// and renders the energy-delay figure-of-merit pair (EDP = E·N,
// ED2P = E·N²) for both runs — all pure functions of the integer
// residency totals and the cell's technology point, so fresh, restored
// and re-priced rows render identically. Ratio columns whose
// denominator degenerates to zero (empty ledgers) render "NA", never a
// literal NaN. The trailing cell columns (w0, contention, seed, case,
// tech, banks) make sharded and matrix campaigns self-describing: a row
// identifies its scenario without the Options that produced it. tech is
// the cell's energy technology point (normalized: the empty sentinel
// renders as the default point's name). topology is the interconnect
// topology (normalized: "" renders as "bus"); on the point-to-point
// fabrics the bank_* columns carry one entry per link (mesh/ring: local
// ports then directional channels) or per port (xbar), and bus_rounds
// counts per-link crossings. banks is the bus interconnect shape (0 =
// the single split bus, 1+ = the banked bus).
var csvHeader = []string{
	"app", "processors", "n1_cycles", "n2_cycles", "speedup",
	"eug", "eg", "energy_ratio", "power_ratio",
	"energy_savings_pct", "power_savings_pct",
	"eg_run", "eg_miss", "eg_commit", "eg_gated",
	"edp_ug", "edp_g", "ed2p_ug", "ed2p_g",
	"aborts_ungated", "aborts_gated", "validation_aborts_gated",
	"gatings", "renewals", "ungates", "self_aborts",
	"commits", "invalidations",
	"bus_util", "bus_wait_cycles", "bus_rounds",
	"bank_util", "bank_wait_cycles", "bank_rounds",
	"w0", "contention", "seed", "case", "tech", "topology", "banks",
}

// WriteCSV exports the campaign's per-configuration metrics as CSV for
// external plotting, one row per run-cell, header included.
func (c *Campaign) WriteCSV(w io.Writer) error {
	return c.writeCSV(w, true)
}

// AppendCSV writes the rows only. A sharded campaign writes its CSV with
// WriteCSV on shard 0 and AppendCSV on the rest, so the per-shard files
// concatenate into exactly the unsharded WriteCSV output.
//
// When w can be read back (it implements io.ReadSeeker, as *os.File
// does), AppendCSV first validates that any existing header matches the
// schema it is about to append and fails cleanly on mismatch — appending
// rows under a foreign header would produce a silently corrupt
// concatenation. An empty target (including the plain io.Writer shard
// buffers) is appended to without a check.
func (c *Campaign) AppendCSV(w io.Writer) error {
	if rs, ok := w.(io.ReadSeeker); ok {
		if err := validateCSVHeader(rs); err != nil {
			return err
		}
	}
	return c.writeCSV(w, false)
}

// validateCSVHeader checks that if the existing content of rs starts
// with a header row, it is exactly this package's CSV header, then
// positions rs at the end for appending. A first row that is not a
// header (it does not begin with the header's first column name) is a
// rows-only shard file, which append-accumulates without a check — data
// rows can never collide with the header because the first column holds
// application names, never the literal column name.
func validateCSVHeader(rs io.ReadSeeker) error {
	if _, err := rs.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("experiments: AppendCSV: seek: %w", err)
	}
	r := csv.NewReader(rs)
	r.FieldsPerRecord = -1
	got, err := r.Read()
	switch {
	case err == io.EOF:
		// Empty file: nothing to validate.
	case err != nil:
		return fmt.Errorf("experiments: AppendCSV: existing content is not CSV: %w", err)
	case len(got) > 0 && got[0] == csvHeader[0]:
		if len(got) != len(csvHeader) {
			return fmt.Errorf("experiments: AppendCSV: existing header has %d columns, appending %d (%v)",
				len(got), len(csvHeader), got)
		}
		for i := range got {
			if got[i] != csvHeader[i] {
				return fmt.Errorf("experiments: AppendCSV: existing header column %d is %q, appending %q",
					i, got[i], csvHeader[i])
			}
		}
	}
	if _, err := rs.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("experiments: AppendCSV: seek to end: %w", err)
	}
	return nil
}

func (c *Campaign) writeCSV(w io.Writer, header bool) error {
	cw := csv.NewWriter(w)
	if header {
		if err := cw.Write(csvHeader); err != nil {
			return err
		}
	}
	for i, o := range c.Outcomes {
		cmp := o.Comparison
		ug, g := o.Ungated.Counters, o.Gated.Counters
		// Cells is always index-aligned with Outcomes; a panic here
		// means a campaign constructor broke that invariant.
		cell := c.Cells[i]
		tech, err := energy.Resolve(cell.Tech)
		if err != nil {
			return err
		}
		egs := tech.Model().EnergyByState(o.Gated.Ledger)
		row := []string{
			string(cell.App),
			fmt.Sprintf("%d", cell.Processors),
			fmt.Sprintf("%d", cmp.N1),
			fmt.Sprintf("%d", cmp.N2),
			csvNum("%.6f", cmp.SpeedUp),
			csvNum("%.6g", cmp.Eug),
			csvNum("%.6g", cmp.Eg),
			csvNum("%.6f", cmp.EnergyRatio),
			csvNum("%.6f", cmp.AvgPowerRatio),
			csvNum("%.3f", cmp.EnergySavings*100),
			csvNum("%.3f", cmp.PowerSavings*100),
			csvNum("%.6g", egs[stats.StateRun]),
			csvNum("%.6g", egs[stats.StateMiss]),
			csvNum("%.6g", egs[stats.StateCommit]),
			csvNum("%.6g", egs[stats.StateGated]),
			csvNum("%.6g", energy.EDP(cmp.Eug, int64(cmp.N1))),
			csvNum("%.6g", energy.EDP(cmp.Eg, int64(cmp.N2))),
			csvNum("%.6g", energy.ED2P(cmp.Eug, int64(cmp.N1))),
			csvNum("%.6g", energy.ED2P(cmp.Eg, int64(cmp.N2))),
			fmt.Sprintf("%d", ug.Aborts),
			fmt.Sprintf("%d", g.Aborts),
			fmt.Sprintf("%d", g.ValidationAborts),
			fmt.Sprintf("%d", g.Gatings),
			fmt.Sprintf("%d", g.Renewals),
			fmt.Sprintf("%d", g.Ungates),
			fmt.Sprintf("%d", g.SelfAborts),
			fmt.Sprintf("%d", g.Commits),
			fmt.Sprintf("%d", g.Invalidations),
			busUtil(o.Gated.BusStats.BusyCycles, o.Gated.Cycles, len(o.Gated.BankStats)),
			fmt.Sprintf("%d", o.Gated.BusStats.WaitCycles),
			fmt.Sprintf("%d", o.Gated.BusStats.Rounds),
			perBank(o.Gated, func(s bus.Stats) string { return busUtil(s.BusyCycles, o.Gated.Cycles, 1) }),
			perBank(o.Gated, func(s bus.Stats) string { return fmt.Sprintf("%d", s.WaitCycles) }),
			perBank(o.Gated, func(s bus.Stats) string { return fmt.Sprintf("%d", s.Rounds) }),
			fmt.Sprintf("%d", cell.effectiveW0()),
			string(cell.contentionOrBase()),
			fmt.Sprintf("%d", cell.Seed),
			cell.ID,
			energy.CanonicalName(cell.Tech),
			canonicalTopology(cell.Topology),
			fmt.Sprintf("%d", cell.Banks),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// csvNum renders a float column, turning the NaN/±Inf a degenerate
// ratio produces (power.Compare's safeDiv over an empty ledger) into
// the literal "NA" — a parseable missing-value marker instead of the
// "NaN" that %.6f would print.
func csvNum(format string, v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "NA"
	}
	return fmt.Sprintf(format, v)
}

// busUtil renders busy-cycles over elapsed wire-capacity cycles (the
// run's cycle count times the bank count) as a fixed-precision fraction.
// Pure integer inputs keep the rendering identical across fresh,
// checkpoint-restored and distributed-worker results. A degenerate
// capacity (a zero-cycle run) routes through the csvNum NA path like the
// energy ratio columns: the utilization of no elapsed time is missing
// data, not 0/0.
func busUtil(busy uint64, cycles sim.Time, banks int) string {
	return csvNum("%.4f", float64(busy)/(float64(cycles)*float64(banks)))
}

// perBank renders one ";"-joined value per interconnect bank. A restored
// outcome predating the per-bank record (impossible on the current
// checkpoint version, but cheap to tolerate) renders the empty field.
func perBank(r *tcc.Result, render func(bus.Stats) string) string {
	parts := make([]string, len(r.BankStats))
	for i, s := range r.BankStats {
		parts[i] = render(s)
	}
	return strings.Join(parts, ";")
}

// effectiveW0 resolves the W0=0 sentinel to the window the run actually
// used (config.Default's 8), so CSV rows are self-describing: the same
// configuration gets the same w0 value whether W0 was spelled out or
// defaulted.
func (c Cell) effectiveW0() sim.Time {
	if c.W0 == 0 {
		return matrixDefaultW0
	}
	return c.W0
}

func (c Cell) contentionOrBase() Contention {
	if c.Contention == "" {
		return ContentionBase
	}
	return c.Contention
}
