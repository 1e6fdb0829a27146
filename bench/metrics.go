package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// The metric tables. BENCHMARK.json lists the same names and units; the
// smoke test keeps the two in step.

// endToEnd is what a user of the simulator waits for, printed with --trace 0.
var endToEnd = []struct{ name, unit string }{
	{"cells_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer is printed with --trace 1. A layer a workload does not reach
// through the calls the benchmark wraps reads 0.
var perLayer = []struct{ name, unit string }{
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.cpu_share", "ratio"},
	{"bus.messages", "count"},
	{"bus.wait_cycles_per_msg", "cycles"},
	{"bus.msgs_per_round", "count"},
	{"bus.cpu_share", "ratio"},
	{"tcc.run_ms_p50", "ms"},
	{"tcc.run_share", "ratio"},
	{"tcc.cpu_share", "ratio"},
	{"directory.cpu_share", "ratio"},
	{"cache.cpu_share", "ratio"},
	{"tcc.build_ms_p50", "ms"},
	{"tcc.reset_us_p50", "us"},
	{"tcc.reuse_ratio", "ratio"},
	{"go.allocs_per_op", "count"},
	{"go.alloc_kb_per_op", "KiB"},
	{"go.gc_cycles", "count"},
	{"go.gc_cpu_share", "ratio"},
	{"workload.gen_calls", "count"},
	{"workload.gen_ms_p50", "ms"},
	{"workload.gen_share", "ratio"},
	{"workload.cpu_share", "ratio"},
	{"dist.lease_ms_p50", "ms"},
	{"dist.lease_ms_p90", "ms"},
	{"dist.return_ms_p50", "ms"},
	{"dist.return_ms_p90", "ms"},
	{"dist.requests_per_cell", "count"},
	{"dist.wire_kb_per_cell", "KiB"},
	{"dist.steals", "count"},
	{"dist.duplicates", "count"},
	{"dist.cpu_share", "ratio"},
	{"experiments.journal_read_ms_p50", "ms"},
	{"experiments.reprice_ms_p50", "ms"},
	{"experiments.render_ms", "ms"},
	{"experiments.cpu_share", "ratio"},
	{"json.cpu_share", "ratio"},
	{"power.compare_us_p50", "us"},
	{"power.cpu_share", "ratio"},
	{"runtime.cpu_share", "ratio"},
	{"tcc.commits", "count"},
	{"tcc.aborts", "count"},
	{"tcc.useful_ratio", "ratio"},
	{"tcc.gatings", "count"},
	{"tcc.renewals", "count"},
	{"tcc.invalidations", "count"},
	{"tcc.l1_miss_ratio", "ratio"},
	{"model.sim_cycles", "cycles"},
	{"model.speedup_gmean", "ratio"},
	{"model.energy_ratio_gmean", "ratio"},
	{"trace.overhead_pct", "%"},
}

func metricUnit(name string) string {
	for _, m := range endToEnd {
		if m.name == name {
			return m.unit
		}
	}
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	panic("bench: undeclared metric " + name)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs need not be sorted. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// gmean is the geometric mean of positive values; 0 for none. The values
// are summed in sorted order, so the result does not depend on the order
// concurrent clients appended them in.
func gmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range slices.Sorted(slices.Values(xs)) {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
