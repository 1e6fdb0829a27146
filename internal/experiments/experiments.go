// Package experiments regenerates every table and figure of the paper's
// evaluation from the simulator: Table I (power model), Table II
// (simulation parameters), Figure 3 (TCC cache power), Figure 4 (parallel
// execution time), Figure 5 (energy), Figure 6 (average power) and
// Figure 7 (speed-up sensitivity to W0 and processor count), plus the
// headline summary (19 % energy / 4 % speed-up / 13 % power in the paper).
package experiments

import (
	"context"
	"fmt"

	"repro/internal/cacti"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stamp"
)

// Options configures an experiment campaign.
type Options struct {
	// Seed drives workload generation.
	Seed uint64
	// Scale multiplies workload transaction counts; 1.0 is the full
	// paper-scale campaign, smaller values give quick runs for tests.
	Scale float64
	// Processors overrides the paper's {4, 8, 16} sweep when non-empty.
	Processors []int
	// Apps overrides the paper's three applications when non-empty.
	Apps []stamp.App
	// W0 overrides the gating window constant (default 8).
	W0 sim.Time
	// Banks selects the interconnect model for every cell that does not
	// pin its own (scenario-matrix banked cases do): 0 is the paper's
	// single split-transaction bus, a positive power of two is the
	// address-interleaved banked bus. Banks=1 is the banked model
	// degenerated to one bank — cycle-identical to the single bus by the
	// differential golden.
	Banks int
	// Topology selects the interconnect shape for every cell that does
	// not pin its own (scenario-matrix topology cases do): "" or "bus"
	// is whatever Banks selects; "xbar", "mesh" and "ring" (optionally
	// sized, e.g. "mesh:4x4" — see bus.ParseTopology) are the
	// point-to-point fabrics, which require Banks=0.
	Topology string
	// Tech names the energy.Tech technology point pricing every cell that
	// does not pin its own (scenario-matrix energy cases do); empty means
	// the default point, the paper's Table I model. Tech changes only how
	// residency ledgers are priced into energy columns — never timing —
	// so it shares traces with every other tech and is the axis the
	// reprice engine sweeps without re-simulating.
	Tech string
	// Workers is the number of goroutines executing run-cells; 1 or
	// fewer means sequential. Results are merged in canonical cell
	// order, so every worker count produces byte-identical output.
	Workers int
	// DeriveSeeds gives each run-cell an independent seed derived from
	// Seed via CellSeed (SplitMix64 of seed and cell index) instead of
	// sharing Seed across all cells as the paper does.
	DeriveSeeds bool
	// Shard restricts the campaign to one contiguous slice of its
	// cells, for splitting a campaign across machines. The zero value
	// runs everything.
	Shard Shard
	// NoTraceCache disables the session's cross-cell caches: traces and
	// ungated baselines. Every cell then regenerates its trace and runs
	// its own ungated baseline. Results are identical either way; this
	// exists for benchmarks, debugging and independent cross-checks, not
	// production use.
	NoTraceCache bool
	// NoSystemReuse disables the per-worker System cache, constructing a
	// fresh simulated machine for every run. Results are identical either
	// way (the reuse path's byte-identity contract is pinned by the
	// done-set equivalence harness); this exists for benchmarks and the
	// differential tests themselves.
	NoSystemReuse bool
	// TraceDir, when non-empty, names an on-disk tracestore directory
	// consulted below the in-process trace cache: an LRU miss loads the
	// trace from the store (mmap'd, zero-copy) before falling back to
	// generation, and generated traces are published for other processes.
	// Generation is deterministic, so the store — like the other cache
	// knobs — cannot change results and is excluded from Fingerprint.
	TraceDir string
}

// DefaultOptions returns the paper's campaign: genome/yada/intruder on
// 4/8/16 processors with W0 = 8 and seed 42.
func DefaultOptions() Options {
	return Options{Seed: 42, Scale: 1.0}
}

func (o Options) processors() []int {
	if len(o.Processors) > 0 {
		return o.Processors
	}
	return []int{4, 8, 16}
}

func (o Options) apps() []stamp.App {
	if len(o.Apps) > 0 {
		return o.Apps
	}
	return stamp.PaperApps()
}

// TableI renders the power model derivation (paper Table I).
func TableI() string {
	m := power.Default()
	t := report.Table{
		Title:   "Table I: Power model of Alpha 21264 (65 nm)",
		Headers: []string{"Operation", "Power Factor"},
		Note: "Derived from: leakage 0.20, TCC D-cache 0.15 (=1.5x0.10), I/O 0.05,\n" +
			"cache+I/O clocks 0.10, miss activity 0.5 (paper §VII).",
	}
	t.AddRow("Run", fmt.Sprintf("%.2f", m.Run))
	t.AddRow("Cache Miss", fmt.Sprintf("%.2f", m.Miss))
	t.AddRow("Transaction Commit", fmt.Sprintf("%.2f", m.Commit))
	t.AddRow("Clock Gated", fmt.Sprintf("%.2f", m.Gated))
	return t.Render()
}

// TableII renders the simulated machine parameters (paper Table II).
func TableII() string {
	cfg := config.Default(16)
	m := cfg.Machine
	t := report.Table{
		Title:   "Table II: Parameters used in the simulation",
		Headers: []string{"Feature", "Description"},
	}
	t.AddRow("CPU", "1-16 single issue in-order cores")
	t.AddRow("L1D", fmt.Sprintf("%dKB, %d byte line size", m.L1SizeBytes>>10, m.L1LineBytes))
	t.AddRow("", fmt.Sprintf("%d-way associative, %d cycle latency", m.L1Ways, m.L1HitCycles))
	t.AddRow("Interconnect", fmt.Sprintf("Common split-transaction bus, %d cycle occupancy", m.BusCycles))
	t.AddRow("Directory", fmt.Sprintf("Full-bit vector sharer, %d cycle latency", m.DirectoryCycles))
	t.AddRow("Main Memory", fmt.Sprintf("%dGB, %d cycle latency, single R/W port", m.MemoryBytes>>30, m.MemoryCycles))
	t.AddRow("Gating", fmt.Sprintf("W0=%d, %d-bit abort counter", cfg.Gating.W0, cfg.Gating.AbortCounterBits))
	return t.Render()
}

// Fig3 renders the TCC data-cache power curves (paper Figure 3).
func Fig3() string {
	cfg := cacti.DefaultConfig()
	set := report.SeriesSet{
		Title:   "Figure 3: Power consumption of data cache supporting TCC",
		XLabel:  "RW-bit resolution (bytes)",
		YLabel:  "normalized power (plain data cache = 100)",
		XFormat: "%.0f",
		YFormat: "%.1f",
	}
	for _, kb := range cacti.CacheSizesKB {
		s := report.Series{Name: fmt.Sprintf("%dKB", kb)}
		for _, res := range cacti.Resolutions {
			s.Points = append(s.Points, report.Point{
				X: float64(res),
				Y: cfg.RWBitPower(res, kb),
			})
		}
		set.Series = append(set.Series, s)
	}
	out := set.Render()
	out += fmt.Sprintf("\nFull TCC data cache at 64KB/2B tracking: %.0f units (%.2fx base;"+
		" paper: conservatively 1.5x)\n",
		cfg.TCCCachePower(2, 64), cfg.TCCFactor(2, 64))
	return out
}

// Campaign holds the paired runs behind Figures 4-6 and the summary.
// Run (see engine.go) builds one by executing the campaign's cells across
// a worker pool and merging outcomes in canonical cell order.
type Campaign struct {
	Options Options
	// Cells are the run-cells behind Outcomes, index-aligned with it.
	Cells    []Cell
	Outcomes []*core.Outcome
}

// label renders outcome i's row/bar label. Cells is always populated by
// the campaign constructors and index-aligned with Outcomes; a panic
// here means a constructor broke that invariant.
func (c *Campaign) label(i int) string {
	return c.Cells[i].Label()
}

// Fig4 renders total parallel execution time, ungated vs gated, with the
// paper's speed-up annotation on the gated bar.
func (c *Campaign) Fig4() string {
	chart := report.BarChart{
		Title: "Figure 4: Total parallel execution time (cycles)",
		Unit:  " cyc",
	}
	for i, o := range c.Outcomes {
		chart.Add(c.label(i)+" no-gate", float64(o.Comparison.N1), "")
		chart.Add(c.label(i)+" gated", float64(o.Comparison.N2),
			report.Factor(o.Comparison.SpeedUp)+" speed-up")
	}
	return chart.Render()
}

// Fig5 renders total energy consumption, ungated vs gated, annotated with
// the energy-reduction factor Eug/Eg.
func (c *Campaign) Fig5() string {
	chart := report.BarChart{
		Title: "Figure 5: Energy consumption with and without clock gating",
		Unit:  " (run-power-cycles)",
	}
	for i, o := range c.Outcomes {
		chart.Add(c.label(i)+" no-gate", o.Comparison.Eug, "")
		chart.Add(c.label(i)+" gated", o.Comparison.Eg,
			report.Factor(o.Comparison.EnergyRatio)+" reduction")
	}
	return chart.Render()
}

// Fig6 renders average power dissipation, ungated vs gated.
func (c *Campaign) Fig6() string {
	chart := report.BarChart{
		Title: "Figure 6: Average power dissipation with and without clock gating",
		Unit:  " (run-power units)",
	}
	for i, o := range c.Outcomes {
		chart.Add(c.label(i)+" no-gate", o.Comparison.Pug, "")
		chart.Add(c.label(i)+" gated", o.Comparison.Pg,
			report.Factor(o.Comparison.AvgPowerRatio)+" reduction")
	}
	return chart.Render()
}

// Summary holds the headline aggregate numbers.
type Summary struct {
	AvgSpeedUp         float64 // paper: 1.04
	AvgEnergyReduction float64 // fraction; paper: 0.19
	AvgPowerReduction  float64 // fraction; paper: 0.13
	Slowdowns          int     // configurations where gating lost time (paper: 1)
}

// Summarize aggregates the campaign the way the paper reports averages.
func (c *Campaign) Summarize() Summary {
	var s Summary
	n := float64(len(c.Outcomes))
	if n == 0 {
		return s
	}
	for _, o := range c.Outcomes {
		s.AvgSpeedUp += o.Comparison.SpeedUp
		s.AvgEnergyReduction += o.Comparison.EnergySavings
		s.AvgPowerReduction += o.Comparison.PowerSavings
		if o.Comparison.SpeedUp < 1 {
			s.Slowdowns++
		}
	}
	s.AvgSpeedUp /= n
	s.AvgEnergyReduction /= n
	s.AvgPowerReduction /= n
	return s
}

// SummaryText renders the headline comparison against the paper.
func (c *Campaign) SummaryText() string {
	s := c.Summarize()
	t := report.Table{
		Title:   "Headline summary (paper §VIII)",
		Headers: []string{"Metric", "Paper", "Measured"},
	}
	t.AddRow("Average speed-up", "+4%", report.Percent(s.AvgSpeedUp-1))
	t.AddRow("Average energy reduction", "19%", report.Percent(s.AvgEnergyReduction))
	t.AddRow("Average power reduction", "13%", report.Percent(s.AvgPowerReduction))
	t.AddRow("Slowdown cases", "1 of 9", fmt.Sprintf("%d of %d", s.Slowdowns, len(c.Outcomes)))
	return t.Render()
}

// DetailTable renders one row per configuration with every §IV metric.
func (c *Campaign) DetailTable() string {
	t := report.Table{
		Title: "Per-configuration detail",
		Headers: []string{"config", "N1", "N2", "speedup", "Eug", "Eg",
			"E-ratio", "P-ratio", "aborts-ug", "aborts-g", "gatings", "renewals"},
	}
	for i, o := range c.Outcomes {
		cmp := o.Comparison
		t.AddRow(c.label(i),
			fmt.Sprintf("%d", cmp.N1),
			fmt.Sprintf("%d", cmp.N2),
			fmt.Sprintf("%.3f", cmp.SpeedUp),
			fmt.Sprintf("%.3g", cmp.Eug),
			fmt.Sprintf("%.3g", cmp.Eg),
			fmt.Sprintf("%.3f", cmp.EnergyRatio),
			fmt.Sprintf("%.3f", cmp.AvgPowerRatio),
			fmt.Sprintf("%d", o.Ungated.Counters.Aborts),
			fmt.Sprintf("%d", o.Gated.Counters.Aborts),
			fmt.Sprintf("%d", o.Gated.Counters.Gatings),
			fmt.Sprintf("%d", o.Gated.Counters.Renewals),
		)
	}
	return t.Render()
}

// Fig7W0Values is the W0 sweep of Figure 7.
var Fig7W0Values = []sim.Time{2, 4, 8, 16, 32}

// fig7Cells enumerates the W0/Np sensitivity sweep as run-cells. Every
// cell shares the campaign seed: the workload of a (app, Np) point must
// be identical across the W0 axis, or the sweep would confound gating
// sensitivity with workload randomness. Because the session's trace cache
// keys on (app, threads, seed) and not on W0, each (app, Np) workload is
// generated once and shared across the whole W0 axis, and so is its
// ungated baseline (the ungated machine never reads W0).
func fig7Cells(o Options) []Cell {
	var cells []Cell
	for _, np := range o.processors() {
		for _, w0 := range Fig7W0Values {
			for _, app := range o.apps() {
				cells = append(cells, Cell{
					Index:      len(cells),
					App:        app,
					Processors: np,
					W0:         w0,
					Contention: ContentionBase,
					Banks:      o.Banks,
					Topology:   o.Topology,
					Tech:       o.Tech,
					Seed:       o.Seed,
				})
			}
		}
	}
	return cells
}

// Fig7 runs the W0/Np speed-up sensitivity sweep (paper Figure 7).
// Speed-ups are averaged over the campaign's applications for each
// (W0, Np) point, each against the one ungated baseline N1 of its
// (app, Np) point, as in the paper. The sweep's |Np|x5x|apps| cells
// execute as one cell set on the session's worker pool, sharing one
// cached trace and one ungated run per (app, Np) point across the W0
// axis.
func (s *Session) Fig7(ctx context.Context) (string, error) {
	outs, err := s.RunCells(ctx, fig7Cells(s.opts))
	if err != nil {
		return "", fmt.Errorf("experiments: fig7: %w", err)
	}
	return fig7Report(s.opts, outs), nil
}

// fig7Report renders Figure 7 from the outcomes of fig7Cells(o).
func fig7Report(o Options, outs []*core.Outcome) string {
	apps := o.apps()
	set := report.SeriesSet{
		Title:   "Figure 7: Speed-up as a function of W0 and Np",
		XLabel:  "W0",
		YLabel:  "speed-up (N1/N2), averaged over applications",
		XFormat: "%.0f",
		YFormat: "%.3f",
	}
	k := 0
	for _, np := range o.processors() {
		s := report.Series{Name: fmt.Sprintf("Np=%d", np)}
		for _, w0 := range Fig7W0Values {
			sum := 0.0
			for range apps {
				sum += outs[k].Comparison.SpeedUp
				k++
			}
			s.Points = append(s.Points, report.Point{X: float64(w0), Y: sum / float64(len(apps))})
		}
		set.Series = append(set.Series, s)
	}
	return set.Render()
}
