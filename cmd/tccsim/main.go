// Command tccsim runs a single workload on the simulated Scalable-TCC
// machine, with or without the clock-gating protocol, and prints the
// execution, protocol and energy statistics of the run.
//
// Usage:
//
//	tccsim -app intruder -procs 16 -gated -w0 8 -seed 42
//	tccsim -app yada -procs 8 -pair        # paired ungated/gated comparison
//	tccsim -trace yada8.trace -procs 8     # replay a tracegen (CGTRACE2) trace
package main

import (
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
		tracePath = flag.String("trace", "", "replay a binary trace file instead of a preset")
		procs     = flag.Int("procs", 8, "processor count")
		gated     = flag.Bool("gated", false, "enable the clock-gating protocol")
		pair      = flag.Bool("pair", false, "run both configurations and compare")
		w0        = flag.Int64("w0", 0, "gating window constant W0 (0 = default 8)")
		seed      = flag.Uint64("seed", 42, "workload generation seed")
		verbose   = flag.Bool("v", false, "print per-processor statistics")
		events    = flag.Int("events", 0, "dump the first N protocol events of the run")
		timeline  = flag.Bool("timeline", false, "print an ASCII per-processor state timeline")
		intervals = flag.Bool("energy", false, "print the paper's interval energy decomposition (eqs. 1-5)")
	)
	flag.Parse()

	rs := core.RunSpec{
		App:        stamp.App(*app),
		Processors: *procs,
		W0:         sim.Time(*w0),
		Seed:       *seed,
	}
	if *tracePath != "" {
		data, err := os.ReadFile(*tracePath)
		if err != nil {
			fatal(err)
		}
		tr, err := workload.DecodeV2Bytes(data)
		if err != nil {
			fatal(err)
		}
		rs.Trace = tr
	}

	if *pair {
		out, err := core.RunPair(rs)
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
	if *events > 0 {
		rec = trace.NewRecorder().Limit(*events)
	}
	res, err := core.RunOneRecorded(rs, *gated, rec)
	if err != nil {
		fatal(err)
	}
	m := power.Default()
	energy := m.Energy(res.Ledger, 0, res.Cycles)
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
	tot := res.Ledger.TotalResidency(0, res.Cycles)
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
		fmt.Print(report.Timeline{Ledger: res.Ledger, Width: 100}.Render())
	}
	if *intervals {
		printIntervalDecomposition(res, m, *gated)
	}
	if rec != nil {
		fmt.Println()
		if err := rec.Dump(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

// printIntervalDecomposition evaluates the paper's §IV interval
// formulation on the run and prints Xi, alpha_i, beta_i and the resulting
// energy, cross-checked against the direct per-state integration.
func printIntervalDecomposition(res *tcc.Result, m power.Model, gated bool) {
	im := power.Intervals(res.Ledger)
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
	direct := m.Energy(res.Ledger, 0, res.Cycles)
	fmt.Printf("    direct integral:  %.6g (delta %.2g)\n", direct, direct-viaEq)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tccsim:", err)
	os.Exit(1)
}
