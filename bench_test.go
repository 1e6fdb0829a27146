// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus the ablation benches DESIGN.md calls out. Each
// iteration regenerates the artifact end-to-end (workload generation,
// paired simulation, metric computation) and reports the headline numbers
// as custom benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation. Figure benches run at a reduced
// workload scale (the experiments binary runs the full scale; the bench
// exists to regenerate the series shape quickly and to track simulator
// performance).
package clockgate

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/bus"
	"repro/internal/cacti"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stamp"
)

// benchScale shrinks workloads for the figure benches.
const benchScale = 0.25

func benchOptions() experiments.Options {
	o := experiments.DefaultOptions()
	o.Scale = benchScale
	return o
}

func benchSpec(b *testing.B, app stamp.App, np int, w0 sim.Time) core.RunSpec {
	b.Helper()
	spec := stamp.MustSpec(app)
	spec.TotalTxs = int(float64(spec.TotalTxs) * benchScale)
	tr, err := spec.Generate(np, 42)
	if err != nil {
		b.Fatal(err)
	}
	return core.RunSpec{Trace: tr, Processors: np, Seed: 42, W0: w0}
}

// BenchmarkTableI regenerates the power-model derivation.
func BenchmarkTableI(b *testing.B) {
	var m power.Model
	for i := 0; i < b.N; i++ {
		m = power.Derive(power.DefaultBreakdown())
	}
	b.ReportMetric(m.Miss, "miss-factor")
	b.ReportMetric(m.Commit, "commit-factor")
	b.ReportMetric(m.Gated, "gated-factor")
}

// BenchmarkTableII regenerates the machine-parameter table.
func BenchmarkTableII(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = experiments.TableII()
	}
	if len(out) == 0 {
		b.Fatal("empty table")
	}
}

// BenchmarkFig3 regenerates the TCC data-cache power curves.
func BenchmarkFig3(b *testing.B) {
	cfg := cacti.DefaultConfig()
	var rows []cacti.Fig3Row
	for i := 0; i < b.N; i++ {
		rows = cacti.Figure3(cfg)
	}
	if len(rows) == 0 {
		b.Fatal("no rows")
	}
	b.ReportMetric(cfg.RWBitPower(2, 64)-cacti.BasePower, "pct-at-64KB-2B")
	b.ReportMetric(cfg.TCCFactor(2, 64), "tcc-factor")
}

// benchFigure runs the paired experiment matrix behind Figures 4-6 and
// reports the metric the figure plots.
func benchFigure(b *testing.B, metric func(power.Comparison) float64, unit string) {
	for _, app := range stamp.PaperApps() {
		for _, np := range []int{4, 8, 16} {
			b.Run(fmt.Sprintf("%s/np%d", app, np), func(b *testing.B) {
				rs := benchSpec(b, app, np, 0)
				var cmp power.Comparison
				for i := 0; i < b.N; i++ {
					out, err := core.RunPair(rs)
					if err != nil {
						b.Fatal(err)
					}
					cmp = out.Comparison
				}
				b.ReportMetric(metric(cmp), unit)
			})
		}
	}
}

// BenchmarkFig4 regenerates the parallel-execution-time comparison: the
// reported metric is the speed-up annotation of each gated bar.
func BenchmarkFig4(b *testing.B) {
	benchFigure(b, func(c power.Comparison) float64 { return c.SpeedUp }, "speedup")
}

// BenchmarkFig5 regenerates the energy comparison: the reported metric is
// the energy-reduction factor Eug/Eg of each pair of bars.
func BenchmarkFig5(b *testing.B) {
	benchFigure(b, func(c power.Comparison) float64 { return c.EnergyRatio }, "energy-ratio")
}

// BenchmarkFig6 regenerates the average-power comparison: the reported
// metric is the power-reduction factor of equation (7).
func BenchmarkFig6(b *testing.B) {
	benchFigure(b, func(c power.Comparison) float64 { return c.AvgPowerRatio }, "power-ratio")
}

// BenchmarkFig7 regenerates the W0/Np speed-up sensitivity surface.
func BenchmarkFig7(b *testing.B) {
	for _, np := range []int{4, 8, 16} {
		for _, w0 := range experiments.Fig7W0Values {
			b.Run(fmt.Sprintf("np%d/W0=%d", np, w0), func(b *testing.B) {
				// One representative app keeps the sweep tractable; the
				// experiments binary averages all three.
				rs := benchSpec(b, stamp.Intruder, np, w0)
				var cmp power.Comparison
				for i := 0; i < b.N; i++ {
					out, err := core.RunPair(rs)
					if err != nil {
						b.Fatal(err)
					}
					cmp = out.Comparison
				}
				b.ReportMetric(cmp.SpeedUp, "speedup")
			})
		}
	}
}

// BenchmarkAblationPolicies compares the paper's gating-aware window
// policy against conventional back-off policies driving the same gating
// hardware (paper §VI: plain exponential back-off "does incur significant
// performance penalty for highly contentious applications").
func BenchmarkAblationPolicies(b *testing.B) {
	for _, pk := range []config.PolicyKind{
		config.PolicyGatingAware, config.PolicyExponential,
		config.PolicyLinear, config.PolicyFixed,
	} {
		b.Run(string(pk), func(b *testing.B) {
			rs := benchSpec(b, stamp.Intruder, 16, 0)
			rs.Configure = func(c *config.Config) { c.Gating.Policy = pk }
			var cmp power.Comparison
			for i := 0; i < b.N; i++ {
				out, err := core.RunPair(rs)
				if err != nil {
					b.Fatal(err)
				}
				cmp = out.Comparison
			}
			b.ReportMetric(cmp.SpeedUp, "speedup")
			b.ReportMetric(cmp.EnergyRatio, "energy-ratio")
		})
	}
}

// BenchmarkAblationRenewal measures the renewal mechanism's contribution:
// with renewal disabled the directory un-gates blindly at timer expiry.
func BenchmarkAblationRenewal(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "renewal-on"
		if disable {
			name = "renewal-off"
		}
		b.Run(name, func(b *testing.B) {
			rs := benchSpec(b, stamp.Yada, 16, 0)
			rs.Configure = func(c *config.Config) { c.Gating.DisableRenewal = disable }
			var cmp power.Comparison
			var renewals uint64
			for i := 0; i < b.N; i++ {
				out, err := core.RunPair(rs)
				if err != nil {
					b.Fatal(err)
				}
				cmp = out.Comparison
				renewals = out.Gated.Counters.Renewals
			}
			b.ReportMetric(cmp.EnergyRatio, "energy-ratio")
			b.ReportMetric(float64(renewals), "renewals")
		})
	}
}

// BenchmarkAblationSRPG prices the same pair of runs under state-retention
// power gating (paper §IV: leakage could be gated too) at several retained
// leakage fractions.
func BenchmarkAblationSRPG(b *testing.B) {
	rs := benchSpec(b, stamp.Intruder, 16, 0)
	out, err := core.RunPair(rs)
	if err != nil {
		b.Fatal(err)
	}
	for _, keep := range []float64{1.0, 0.5, 0.25, 0.1} {
		b.Run(fmt.Sprintf("retain%.0f%%", keep*100), func(b *testing.B) {
			var cmp power.Comparison
			for i := 0; i < b.N; i++ {
				m := power.Default().WithSRPG(keep)
				cmp = power.Compare(m, out.Ungated.Ledger, out.Gated.Ledger)
			}
			b.ReportMetric(cmp.EnergyRatio, "energy-ratio")
		})
	}
}

// BenchmarkAblationW0 sweeps the firmware constant the paper says must be
// preset per system size.
func BenchmarkAblationW0(b *testing.B) {
	for _, w0 := range []sim.Time{2, 8, 32, 128} {
		b.Run(fmt.Sprintf("W0=%d", w0), func(b *testing.B) {
			rs := benchSpec(b, stamp.Genome, 16, w0)
			var cmp power.Comparison
			for i := 0; i < b.N; i++ {
				out, err := core.RunPair(rs)
				if err != nil {
					b.Fatal(err)
				}
				cmp = out.Comparison
			}
			b.ReportMetric(cmp.SpeedUp, "speedup")
			b.ReportMetric(cmp.EnergyRatio, "energy-ratio")
		})
	}
}

// benchCampaign runs the paper campaign end-to-end on the given worker
// count and reports the headline energy reduction, so the parallel and
// sequential engines are checked to produce the same science while their
// wall-clock is compared.
func benchCampaign(b *testing.B, workers int) {
	o := benchOptions()
	o.Workers = workers
	var s experiments.Summary
	for i := 0; i < b.N; i++ {
		session := experiments.NewSession(o)
		c, err := session.Run(context.Background())
		session.Close()
		if err != nil {
			b.Fatal(err)
		}
		s = c.Summarize()
	}
	b.ReportMetric(s.AvgEnergyReduction*100, "energy-reduction-pct")
}

// BenchmarkCampaignSequential is the full paired-run matrix on one
// goroutine — the baseline the parallel engine is measured against.
func BenchmarkCampaignSequential(b *testing.B) {
	benchCampaign(b, 1)
}

// BenchmarkCampaignParallel is the same campaign with one worker per
// core. Comparing ns/op against BenchmarkCampaignSequential measures the
// engine's actual speed-up rather than asserting it.
func BenchmarkCampaignParallel(b *testing.B) {
	benchCampaign(b, runtime.GOMAXPROCS(0))
}

// BenchmarkSimulatorThroughput tracks raw simulator performance: events
// per second on a mid-size gated run. This is the number to watch when
// optimizing the engine.
func BenchmarkSimulatorThroughput(b *testing.B) {
	rs := benchSpec(b, stamp.Genome, 8, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunOne(rs, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineHotPath is the headline simulation-hot-path number: one
// paired (ungated + gated) run-cell of the high-conflict preset on a
// 32-processor machine, trace pre-generated so only the simulators are
// measured. cells/s is what a campaign worker can sustain at 32p.
func BenchmarkEngineHotPath(b *testing.B) {
	for _, np := range []int{8, 32} {
		b.Run(fmt.Sprintf("np%d", np), func(b *testing.B) {
			rs := benchSpec(b, stamp.Intruder, np, 0)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.RunPair(rs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cells/s")
		})
	}
}

// BenchmarkEngineHotPathReuse is the same paired 32p cell on a reused
// System — the session pool workers' steady state: one warm SystemCache
// carried across the stream, every run a Reset in place instead of a
// rebuild. The gap to EngineHotPath/np32 is pure construction and GC
// (the simulation itself is allocation-free either way; the reuse path
// measures ~142 allocations per paired cell, the ledger and Result).
// cmd/benchsnap records both lanes (cell_32p_* and cell_32p_reuse_*) in
// BENCH_engine.json on every CI run.
func BenchmarkEngineHotPathReuse(b *testing.B) {
	rs := benchSpec(b, stamp.Intruder, 32, 0)
	sc := &core.SystemCache{}
	if _, err := core.RunPairCached(context.Background(), rs, sc); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunPairCached(context.Background(), rs, sc); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cells/s")
}

// interconnectScalingOccupancy is the per-message bus hold time of the
// interconnect scaling study: a 64-byte line on a 64-bit data path is 8
// transfer beats. Table II's 2-cycle occupancy models an aggressive wide
// bus where even 128 processors leave the wires ~25% utilized and
// banking has nothing to relieve; at line-beat occupancy the single bus
// saturates (>90% utilization at 128p) and the scale axis becomes an
// interconnect experiment rather than a memory-latency one.
const interconnectScalingOccupancy = sim.Time(8)

// BenchmarkInterconnectScaling is the banked interconnect's payoff
// measurement: one paired 128-processor run-cell of the high-conflict
// preset per interconnect shape, at line-beat bus occupancy. cells/s
// compares the shapes' simulation throughput (the banked model finishes
// the same workload in fewer simulated cycles); wait-cycles/msg is the
// modeled contention each message suffered. cmd/benchsnap records the
// banks=1 and banks=4 lanes in BENCH_engine.json on every CI run.
func BenchmarkInterconnectScaling(b *testing.B) {
	for _, banks := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("np128/banks%d", banks), func(b *testing.B) {
			rs := benchSpec(b, stamp.Intruder, 128, 0)
			rs.Configure = func(c *config.Config) {
				c.Machine.Banks = banks
				c.Machine.BusCycles = interconnectScalingOccupancy
			}
			b.ReportAllocs()
			var st bus.Stats
			var n1 sim.Time
			for i := 0; i < b.N; i++ {
				out, err := core.RunPair(rs)
				if err != nil {
					b.Fatal(err)
				}
				st = out.Ungated.BusStats
				n1 = out.Ungated.Cycles
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cells/s")
			b.ReportMetric(float64(st.WaitCycles)/float64(st.Messages), "wait-cycles/msg")
			b.ReportMetric(float64(st.BusyCycles)/float64(n1)/float64(banks), "utilization")
		})
	}
}

// BenchmarkTopologyScaling is the point-to-point fabrics' payoff
// measurement, the same 128-processor line-beat-occupancy study as
// BenchmarkInterconnectScaling run across the topology axis: the mesh
// and crossbar spread the load over many links or pair ledgers, so their
// wait-cycles/msg must undercut even the 4-banked bus. cmd/benchsnap
// records the mesh and xbar lanes next to the banked ones in
// BENCH_engine.json, where the two interconnect axes stay comparable.
func BenchmarkTopologyScaling(b *testing.B) {
	for _, topo := range []string{"bus", "xbar", "mesh", "ring"} {
		b.Run("np128/"+topo, func(b *testing.B) {
			rs := benchSpec(b, stamp.Intruder, 128, 0)
			rs.Configure = func(c *config.Config) {
				c.Machine.Topology = topo
				c.Machine.BusCycles = interconnectScalingOccupancy
			}
			b.ReportAllocs()
			var st bus.Stats
			for i := 0; i < b.N; i++ {
				out, err := core.RunPair(rs)
				if err != nil {
					b.Fatal(err)
				}
				st = out.Ungated.BusStats
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cells/s")
			b.ReportMetric(float64(st.WaitCycles)/float64(st.Messages), "wait-cycles/msg")
		})
	}
}
