package experiments

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

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
// tech, banks) make matrix campaigns and appended rows self-describing:
// a row identifies its scenario without the Options that produced it.
// tech is the cell's energy technology point (normalized: the empty
// sentinel renders as the default point's name). topology is the interconnect
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

// AppendCSV writes the rows only, so several campaigns' rows accumulate
// under one header: WriteCSV the first, AppendCSV the rest.
//
// When w can be read back (it implements io.ReadSeeker, as *os.File
// does), AppendCSV first validates that any existing header matches the
// schema it is about to append and fails cleanly on mismatch — appending
// rows under a foreign header would produce a silently corrupt
// concatenation. An empty target (and any plain io.Writer) is appended
// to without a check.
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
// rows-only file, which append-accumulates without a check — data
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
	var row csvRow
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
		cycles := o.Gated.Cycles
		row.reset()
		row.str(string(cell.App))
		row.int(int64(cell.Processors))
		row.int(int64(cmp.N1))
		row.int(int64(cmp.N2))
		row.num(cmp.SpeedUp, 'f', 6)
		row.num(cmp.Eug, 'g', 6)
		row.num(cmp.Eg, 'g', 6)
		row.num(cmp.EnergyRatio, 'f', 6)
		row.num(cmp.AvgPowerRatio, 'f', 6)
		row.num(cmp.EnergySavings*100, 'f', 3)
		row.num(cmp.PowerSavings*100, 'f', 3)
		row.num(egs[stats.StateRun], 'g', 6)
		row.num(egs[stats.StateMiss], 'g', 6)
		row.num(egs[stats.StateCommit], 'g', 6)
		row.num(egs[stats.StateGated], 'g', 6)
		row.num(energy.EDP(cmp.Eug, int64(cmp.N1)), 'g', 6)
		row.num(energy.EDP(cmp.Eg, int64(cmp.N2)), 'g', 6)
		row.num(energy.ED2P(cmp.Eug, int64(cmp.N1)), 'g', 6)
		row.num(energy.ED2P(cmp.Eg, int64(cmp.N2)), 'g', 6)
		row.uint(ug.Aborts)
		row.uint(g.Aborts)
		row.uint(g.ValidationAborts)
		row.uint(g.Gatings)
		row.uint(g.Renewals)
		row.uint(g.Ungates)
		row.uint(g.SelfAborts)
		row.uint(g.Commits)
		row.uint(g.Invalidations)
		row.num(busUtil(o.Gated.BusStats.BusyCycles, cycles, len(o.Gated.BankStats)), 'f', 4)
		row.uint(o.Gated.BusStats.WaitCycles)
		row.uint(o.Gated.BusStats.Rounds)
		row.perBank(o.Gated, func(b []byte, s bus.Stats) []byte {
			return appendNum(b, busUtil(s.BusyCycles, cycles, 1), 'f', 4)
		})
		row.perBank(o.Gated, func(b []byte, s bus.Stats) []byte { return strconv.AppendUint(b, s.WaitCycles, 10) })
		row.perBank(o.Gated, func(b []byte, s bus.Stats) []byte { return strconv.AppendUint(b, s.Rounds, 10) })
		row.int(int64(cell.effectiveW0()))
		row.str(string(cell.contentionOrBase()))
		row.uint(cell.Seed)
		row.str(cell.ID)
		row.str(energy.CanonicalName(cell.Tech))
		row.str(canonicalTopology(cell.Topology))
		row.int(int64(cell.Banks))
		if err := cw.Write(row.strings()); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// csvRow renders one CSV row's fields back to back into one buffer, so
// a row costs one string allocation rather than one per field, and
// numbers never go through fmt.
type csvRow struct {
	buf    []byte
	ends   []int    // where each field ends in buf
	fields []string // the row as strings, reused across rows
}

func (r *csvRow) reset() {
	r.buf, r.ends = r.buf[:0], r.ends[:0]
}

func (r *csvRow) next() { r.ends = append(r.ends, len(r.buf)) }

func (r *csvRow) str(s string) {
	r.buf = append(r.buf, s...)
	r.next()
}

// int renders an integer column as fmt's %d does.
func (r *csvRow) int(v int64) {
	r.buf = strconv.AppendInt(r.buf, v, 10)
	r.next()
}

// uint renders an unsigned column as fmt's %d does.
func (r *csvRow) uint(v uint64) {
	r.buf = strconv.AppendUint(r.buf, v, 10)
	r.next()
}

// num renders a float column; see appendNum.
func (r *csvRow) num(v float64, format byte, prec int) {
	r.buf = appendNum(r.buf, v, format, prec)
	r.next()
}

// perBank renders one ";"-joined value per interconnect bank. A restored
// outcome predating the per-bank record (impossible on the current
// checkpoint version, but cheap to tolerate) renders the empty field.
func (r *csvRow) perBank(res *tcc.Result, value func([]byte, bus.Stats) []byte) {
	for i, s := range res.BankStats {
		if i > 0 {
			r.buf = append(r.buf, ';')
		}
		r.buf = value(r.buf, s)
	}
	r.next()
}

// strings returns the row's fields as substrings of one string.
func (r *csvRow) strings() []string {
	s := string(r.buf)
	r.fields = r.fields[:0]
	start := 0
	for _, end := range r.ends {
		r.fields = append(r.fields, s[start:end])
		start = end
	}
	return r.fields
}

// appendNum renders a float column as fmt's %.<prec><format> does, for
// format 'f' or 'g', turning the NaN/±Inf a degenerate ratio produces
// (power.Compare's safeDiv over an empty ledger) into the literal "NA" —
// a parseable missing-value marker instead of the "NaN" that %.6f would
// print. For finite values fmt's %g is strconv's 'g', which already
// takes strconv's fast fixed-digit path; 'f' goes through appendFixed.
func appendNum(b []byte, v float64, format byte, prec int) []byte {
	switch {
	case math.IsNaN(v) || math.IsInf(v, 0):
		return append(b, "NA"...)
	case format == 'f':
		return appendFixed(b, v, prec)
	}
	return strconv.AppendFloat(b, v, format, prec, 64)
}

// appendFixed appends v with prec digits after the point: the bytes
// strconv.AppendFloat(b, v, 'f', prec, 64), and so fmt's %.<prec>f,
// writes. strconv formats a fixed number of decimals through its
// multi-precision path; appendFixed instead rounds the shortest digits
// that round-trip to v, which strconv computes on its fast path. That
// rounding is exact unless the digits end exactly on a rounding tie, or
// v is large. A tie lying strictly between v and its shortest digits
// would itself round-trip to v, and be shorter (or as short and closer),
// so the shortest digits never sit on its other side. And below 1e9, v
// and its shortest digits lie within half an ulp (6e-8) of each other,
// too close for a tie of prec <= 6 decimals to separate them when the
// digits stop short of the tie's position. Ties, |v| >= 1e9 and longer
// precisions take strconv's exact path.
func appendFixed(b []byte, v float64, prec int) []byte {
	if prec > 6 || !(math.Abs(v) < 1e9) {
		return strconv.AppendFloat(b, v, 'f', prec, 64)
	}
	var tmp [32]byte
	s := strconv.AppendFloat(tmp[:0], v, 'e', -1, 64) // [-]d[.ddd]e±dd
	neg := s[0] == '-'
	if neg {
		s = s[1:]
	}
	e := bytes.IndexByte(s, 'e')
	exp := 0
	for _, c := range s[e+2:] {
		exp = exp*10 + int(c-'0')
	}
	if s[e+1] == '-' {
		exp = -exp
	}
	// v = 0.d₀d₁…dₙ₋₁ × 10^point.
	var digits [24]byte
	n := copy(digits[:], s[:1])
	if e > 1 {
		n += copy(digits[n:], s[2:e])
	}
	point := exp + 1
	// Keep the digits down to 10^-prec, rounding half to even.
	if keep := point + prec; keep < n {
		up := false
		if keep >= 0 {
			switch d := digits[keep]; {
			case d == '5' && keep+1 == n:
				return strconv.AppendFloat(b, v, 'f', prec, 64) // a tie
			case d >= '5':
				up = true
			}
		}
		n = max(keep, 0)
		for up && n > 0 && digits[n-1] == '9' {
			n-- // a carry: the trailing 9s become zeros
		}
		switch {
		case up && n > 0:
			digits[n-1]++
		case up:
			digits[0], n = '1', 1
			point++
		}
	}
	if neg {
		b = append(b, '-')
	}
	digit := func(i int) byte {
		if i >= 0 && i < n {
			return digits[i]
		}
		return '0'
	}
	if point <= 0 {
		b = append(b, '0')
	}
	for i := 0; i < point; i++ {
		b = append(b, digit(i))
	}
	if prec > 0 {
		b = append(b, '.')
		for i := point; i < point+prec; i++ {
			b = append(b, digit(i))
		}
	}
	return b
}

// busUtil is busy-cycles over elapsed wire-capacity cycles (the run's
// cycle count times the bank count), which the CSV renders as a %.4f
// fraction. Pure integer inputs keep the rendering identical across
// fresh, checkpoint-restored and distributed-worker results. A
// degenerate capacity (a zero-cycle run) gives NaN or +Inf, which
// render as NA like the energy ratio columns: the utilization of no
// elapsed time is missing data, not 0/0.
func busUtil(busy uint64, cycles sim.Time, banks int) float64 {
	return float64(busy) / (float64(cycles) * float64(banks))
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
