// Command tccsim runs a single workload on the simulated Scalable-TCC
// machine, with or without the clock-gating protocol, and prints the
// execution, protocol and energy statistics of the run. -timeline, -energy
// and -events attach the protocol event recorder: the state timeline and
// the interval decomposition fold its power-state events, and -events N
// prints its first N protocol events (state events are not listed). -v
// adds a summary of the generated trace and per-processor statistics.
//
// Usage:
//
//	tccsim -app intruder -procs 16 -gated -w0 8 -seed 42
//	tccsim -app intruder -procs 4 -gated -timeline -energy -events 20
//	tccsim -app yada -procs 8 -pair        # paired ungated/gated comparison
//	tccsim -app yada -procs 8 -v           # trace summary and per-processor stats
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stamp"
	"repro/internal/stats"
	"repro/internal/tcc"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	var (
		app       = flag.String("app", "intruder", "workload preset (genome, yada, intruder, ...)")
		procs     = flag.Int("procs", 8, "processor count")
		gated     = flag.Bool("gated", false, "enable the clock-gating protocol")
		pair      = flag.Bool("pair", false, "run both configurations and compare")
		w0        = flag.Int64("w0", 0, "gating window constant W0 (0 = default 8)")
		seed      = flag.Uint64("seed", 42, "workload generation seed")
		verbose   = flag.Bool("v", false, "print a trace summary and per-processor statistics")
		events    = flag.Int("events", 0, "dump the first N protocol events of the run")
		timeline  = flag.Bool("timeline", false, "print an ASCII per-processor state timeline")
		intervals = flag.Bool("energy", false, "print the paper's interval energy decomposition (eqs. 1-5)")
	)
	flag.Parse()

	tr, err := stamp.Generate(stamp.App(*app), *procs, *seed)
	if err != nil {
		fatal(err)
	}
	if *verbose {
		summarize(tr)
		fmt.Println()
	}
	rs := core.RunSpec{
		Trace:      tr,
		Processors: *procs,
		W0:         sim.Time(*w0),
		Seed:       *seed,
	}

	if *pair {
		out, err := core.RunPair(context.Background(), rs, nil)
		if err != nil {
			fatal(err)
		}
		c := out.Comparison
		fmt.Printf("workload        %s on %d processors (seed %d)\n", out.Ungated.TraceName, *procs, *seed)
		fmt.Printf("N1 (ungated)    %d cycles\n", c.N1)
		fmt.Printf("N2 (gated)      %d cycles\n", c.N2)
		fmt.Printf("speed-up        %.3fx\n", c.SpeedUp)
		fmt.Printf("Eug             %.4g\n", c.Eug)
		fmt.Printf("Eg              %.4g\n", c.Eg)
		fmt.Printf("energy ratio    %.3fx (savings %.1f%%)\n", c.EnergyRatio, c.EnergySavings*100)
		fmt.Printf("power ratio     %.3fx (savings %.1f%%)\n", c.AvgPowerRatio, c.PowerSavings*100)
		fmt.Printf("aborts          %d ungated -> %d gated\n",
			out.Ungated.Counters.Aborts, out.Gated.Counters.Aborts)
		fmt.Printf("gatings         %d (renewals %d, self-aborts %d)\n",
			out.Gated.Counters.Gatings, out.Gated.Counters.Renewals, out.Gated.Counters.SelfAborts)
		return
	}

	var rec *trace.Recorder
	if *events > 0 || *timeline || *intervals {
		rec = trace.NewRecorder()
	}
	res, err := core.RunSide(context.Background(), rs, *gated, nil, rec)
	if err != nil {
		fatal(err)
	}
	segs := trace.Segments(rec.Events(), *procs, res.Cycles)
	m := power.Default()
	energy := m.Energy(res.Ledger)
	mode := "ungated"
	if *gated {
		mode = "gated"
	}
	fmt.Printf("workload     %s on %d processors, %s (seed %d)\n", res.TraceName, *procs, mode, *seed)
	fmt.Printf("cycles       %d\n", res.Cycles)
	fmt.Printf("energy       %.4g run-power-cycles\n", energy)
	fmt.Printf("avg power    %.4g run-power units\n", energy/float64(res.Cycles))
	fmt.Printf("commits      %d\n", res.Counters.Commits)
	fmt.Printf("aborts       %d (%.2f per commit)\n", res.Counters.Aborts, res.Counters.AbortRate())
	fmt.Printf("invals       %d\n", res.Counters.Invalidations)
	if *gated {
		fmt.Printf("gatings      %d\n", res.Counters.Gatings)
		fmt.Printf("renewals     %d\n", res.Counters.Renewals)
		fmt.Printf("self-aborts  %d\n", res.Counters.SelfAborts)
	}
	tot := res.Ledger.TotalResidency()
	all := float64(tot[0] + tot[1] + tot[2] + tot[3])
	fmt.Printf("residency    run %.1f%%  miss %.1f%%  commit %.1f%%  gated %.1f%%\n",
		100*float64(tot[stats.StateRun])/all,
		100*float64(tot[stats.StateMiss])/all,
		100*float64(tot[stats.StateCommit])/all,
		100*float64(tot[stats.StateGated])/all)
	fmt.Printf("bus          %d messages, %.1f%% utilized\n",
		res.BusStats.Messages, 100*float64(res.BusStats.BusyCycles)/float64(res.Cycles))

	if *verbose {
		fmt.Println()
		for i, ps := range res.PerProc {
			fmt.Printf("proc %2d: commits %5d aborts %4d gatings %4d self-aborts %4d max-attempts %d\n",
				i, ps.Commits, ps.Aborts, ps.Gatings, ps.SelfAborts, ps.MaxAttempts)
		}
	}
	if *timeline {
		fmt.Println()
		fmt.Print(report.Timeline{Segments: segs, End: res.Cycles, Width: 100}.Render())
	}
	if *intervals {
		printIntervalDecomposition(res, segs, m, *gated)
	}
	if *events > 0 {
		fmt.Println()
		shown := 0
		for _, e := range rec.Events() {
			if shown == *events {
				break
			}
			if e.Kind != trace.EvState {
				fmt.Println(e)
				shown++
			}
		}
	}
}

// summarize prints the trace's shape: its name, threads, transactions,
// operations by kind, distinct transaction PCs and the highest line it
// touches.
func summarize(tr *workload.Trace) {
	fmt.Printf("trace    %s\n", tr.Name)
	fmt.Printf("threads  %d\n", tr.NumThreads())
	fmt.Printf("txs      %d total\n", tr.TotalTxs())
	reads, writes, computes := 0, 0, 0
	distinctPCs := make(map[uint64]struct{})
	maxLine := int64(-1)
	for ti := range tr.Threads {
		th := &tr.Threads[ti]
		for xi := range th.Txs {
			tx := &th.Txs[xi]
			distinctPCs[tx.PC] = struct{}{}
			for _, op := range tx.Ops {
				switch op.Kind() {
				case workload.OpRead:
					reads++
				case workload.OpWrite:
					writes++
				case workload.OpCompute:
					computes++
				}
				if op.Kind() != workload.OpCompute && int64(op.Line()) > maxLine {
					maxLine = int64(op.Line())
				}
			}
		}
	}
	fmt.Printf("ops      %d reads, %d writes, %d compute bursts\n", reads, writes, computes)
	fmt.Printf("tx types %d distinct PCs\n", len(distinctPCs))
	fmt.Printf("footprint lines 0..%d\n", maxLine)
}

// printIntervalDecomposition evaluates the paper's §IV interval
// formulation on the run and prints Xi, alpha_i, beta_i and the resulting
// energy, cross-checked against the direct per-state integration.
func printIntervalDecomposition(res *tcc.Result, segs [][]stats.Segment, m power.Model, gated bool) {
	im := power.Intervals(segs, res.Cycles)
	fmt.Println()
	fmt.Printf("interval decomposition (paper §IV): N=%d p=%d\n", im.N, im.P)
	fmt.Printf("%3s %12s %8s %8s\n", "i", "Xi (cycles)", "alpha_i", "beta_i")
	for i := 0; i <= im.P; i++ {
		if im.X[i] == 0 {
			continue
		}
		fmt.Printf("%3d %12d %8.3f %8.3f\n", i, im.X[i], im.Alpha[i], im.Beta[i])
	}
	var viaEq float64
	if gated {
		viaEq = im.GatedEnergy(m)
		fmt.Printf("Eg  via equation (1): %.6g\n", viaEq)
	} else {
		viaEq = im.UngatedEnergy(m)
		fmt.Printf("Eug via equation (5): %.6g\n", viaEq)
	}
	direct := m.Energy(res.Ledger)
	fmt.Printf("    direct integral:  %.6g (delta %.2g)\n", direct, direct-viaEq)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tccsim:", err)
	os.Exit(1)
}
