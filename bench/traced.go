package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/tcc"
)

// tracer keeps spans and layer counts in memory while a traced phase
// runs; tracedRun writes the spans out as JSONL when the phase ends.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []spanRecord
	c     layerCounts
}

// spanRecord is one finished span: the operation it belongs to, its
// parent (0 for an operation's root span) and its interval in ns since
// the traced phase started.
type spanRecord struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layerCounts are counted at the same boundaries the spans wrap.
type layerCounts struct {
	events                      uint64
	busMsgs, busWait, busRounds uint64
	compare                     []time.Duration // reprice: one per power.Compare
	requests                    int
	wireBytes                   int64
	steals, duplicates          int
	// Round 0 only, from here down.
	cells                    int
	commits, aborts, gatings uint64
	renewals, invalidations  uint64
	l1Hits, l1Misses         uint64
	simCycles                uint64
	speedups, energyRatios   []float64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span is an open span.
type span struct {
	tr         *tracer
	id, parent int64
	op         int64
	name       string
	start      time.Time
}

// begin opens operation op's root span.
func (t *tracer) begin(name string, op int) *span {
	return &span{tr: t, id: t.nextID.Add(1), op: int64(op), name: name, start: time.Now()}
}

// child opens a span caused by s.
func (s *span) child(name string) *span {
	return &span{tr: s.tr, id: s.tr.nextID.Add(1), parent: s.id, op: s.op, name: name, start: time.Now()}
}

// end closes the span and records it. A span never ended is not recorded.
func (s *span) end() {
	now := time.Now()
	t := s.tr
	t.mu.Lock()
	t.spans = append(t.spans, spanRecord{
		ID: s.id, Parent: s.parent, Op: s.op, Name: s.name,
		Start: int64(s.start.Sub(t.t0)), End: int64(now.Sub(t.t0)),
	})
	t.mu.Unlock()
}

// count updates the layer counts under the tracer's lock.
func (t *tracer) count(f func(c *layerCounts)) {
	t.mu.Lock()
	f(&t.c)
	t.mu.Unlock()
}

// countRun adds one simulation's engine events and interconnect counts.
func (t *tracer) countRun(events uint64, r *tcc.Result) {
	t.count(func(c *layerCounts) {
		c.events += events
		c.busMsgs += r.BusStats.Messages
		c.busWait += r.BusStats.WaitCycles
		c.busRounds += r.BusStats.Rounds
	})
}

// countModel adds one round-0 cell's simulated counts. These are fixed by
// the seed, so a change that only speeds the simulator up must leave them
// identical.
func (t *tracer) countModel(o *core.Outcome) {
	t.count(func(c *layerCounts) {
		for _, r := range []*tcc.Result{o.Ungated, o.Gated} {
			c.commits += r.Counters.Commits
			c.aborts += r.Counters.Aborts + r.Counters.ValidationAborts + r.Counters.SelfAborts
			c.gatings += r.Counters.Gatings
			c.renewals += r.Counters.Renewals
			c.invalidations += r.Counters.Invalidations
			c.simCycles += uint64(r.Cycles)
			for _, s := range r.CachePerProc {
				c.l1Hits += s.Hits
				c.l1Misses += s.Misses
			}
		}
		c.speedups = append(c.speedups, o.Comparison.SpeedUp)
		c.energyRatios = append(c.energyRatios, o.Comparison.EnergyRatio)
		c.cells++
	})
}

// tracedRun runs the traced phase under a CPU profile, writes the spans
// and sets every per-layer metric. untraced is the phase measured just
// before it with tracing off, and g its Go runtime counters.
func tracedRun(ctx context.Context, w *workload, inst instance, cfg runConfig, rep *report, untraced *phase, g goStats) (*phase, error) {
	base := filepath.Join(cfg.traceDir, fmt.Sprintf("%s.seed%d", w.name, cfg.seed))
	prof, err := os.Create(base + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	defer prof.Close()
	tr := newTracer()
	if err := pprof.StartCPUProfile(prof); err != nil {
		return nil, err
	}
	ph := runPhase(ctx, w, inst, tr, cfg.seconds, cfg.minOps(w))
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return nil, err
	}
	if err := writeSpans(base+".spans.jsonl", tr.spans); err != nil {
		return nil, err
	}
	shares, err := packageShares(ctx, base+".cpu.pprof")
	if err != nil {
		return nil, err
	}
	rep.note("spans: %s.spans.jsonl (%d spans); CPU profile: %s.cpu.pprof", base, len(tr.spans), base)
	layerMetrics(rep, tr, ph, untraced, g, shares)
	return ph, nil
}

func writeSpans(path string, spans []spanRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerMetrics derives the per-layer metrics from the traced phase's spans
// and counts, the untraced phase's Go runtime counters and the CPU
// profile's package shares.
func layerMetrics(rep *report, tr *tracer, ph, untraced *phase, g goStats, shares map[string]float64) {
	durs := map[string][]time.Duration{}
	total := map[string]time.Duration{}
	for _, s := range tr.spans {
		d := time.Duration(s.End - s.Start)
		durs[s.Name] = append(durs[s.Name], d)
		total[s.Name] += d
	}
	p50ms := func(name string) (float64, int) {
		return quantile(ms(durs[name]), 0.5), len(durs[name])
	}
	share := func(name string) (float64, int) {
		return ratio(float64(total[name]), float64(total["op"])), len(durs[name])
	}
	c := &tr.c
	runs := len(durs["tcc.run"])

	rep.set("sim.events", float64(c.events), runs)
	rep.set("sim.ns_per_event", ratio(float64(total["tcc.run"]), float64(c.events)), runs)
	rep.set("bus.messages", float64(c.busMsgs), runs)
	rep.set("bus.wait_cycles_per_msg", ratio(float64(c.busWait), float64(c.busMsgs)), runs)
	rep.set("bus.msgs_per_round", ratio(float64(c.busMsgs), float64(c.busRounds)), runs)

	v, n := p50ms("tcc.run")
	rep.set("tcc.run_ms_p50", v, n)
	v, n = share("tcc.run")
	rep.set("tcc.run_share", v, n)
	v, n = p50ms("tcc.build")
	rep.set("tcc.build_ms_p50", v, n)
	v, n = p50ms("tcc.reset")
	rep.set("tcc.reset_us_p50", 1000*v, n)
	builds, resets := len(durs["tcc.build"]), len(durs["tcc.reset"])
	rep.set("tcc.reuse_ratio", ratio(float64(resets), float64(builds+resets)), builds+resets)

	rep.set("go.allocs_per_op", ratio(float64(g.mallocs), float64(untraced.ops)), untraced.ops)
	rep.set("go.alloc_kb_per_op", ratio(float64(g.allocBytes)/1024, float64(untraced.ops)), untraced.ops)
	rep.set("go.gc_cycles", float64(g.gcs), 1)
	rep.set("go.gc_cpu_share", ratio(g.gcCPU, g.totalCPU), 1)

	rep.set("workload.gen_calls", float64(len(durs["workload.gen"])), len(durs["workload.gen"]))
	v, n = p50ms("workload.gen")
	rep.set("workload.gen_ms_p50", v, n)
	v, n = share("workload.gen")
	rep.set("workload.gen_share", v, n)

	lease, ret := ms(durs["dist.lease"]), ms(durs["dist.return"])
	rep.set("dist.lease_ms_p50", quantile(lease, 0.5), len(lease))
	rep.set("dist.lease_ms_p90", quantile(lease, 0.9), len(lease))
	rep.set("dist.return_ms_p50", quantile(ret, 0.5), len(ret))
	rep.set("dist.return_ms_p90", quantile(ret, 0.9), len(ret))
	rep.set("dist.requests_per_cell", ratio(float64(c.requests), float64(ph.cells)), c.requests)
	rep.set("dist.wire_kb_per_cell", ratio(float64(c.wireBytes)/1024, float64(ph.cells)), c.requests)
	rep.set("dist.steals", float64(c.steals), 1)
	rep.set("dist.duplicates", float64(c.duplicates), 1)

	v, n = p50ms("experiments.journal_read")
	rep.set("experiments.journal_read_ms_p50", v, n)
	v, n = p50ms("experiments.reprice")
	rep.set("experiments.reprice_ms_p50", v, n)
	v, n = p50ms("experiments.render")
	rep.set("experiments.render_ms", v, n)
	cmp, ncmp := ms(durs["power.compare"]), len(durs["power.compare"])
	if len(c.compare) > 0 {
		cmp, ncmp = ms(c.compare), len(c.compare)
	}
	rep.set("power.compare_us_p50", 1000*quantile(cmp, 0.5), ncmp)

	for _, layer := range []string{"sim", "bus", "tcc", "directory", "cache", "workload", "dist", "experiments", "json", "power", "runtime"} {
		rep.set(layer+".cpu_share", shares[layer], int(shares["samples"]))
	}

	rep.set("tcc.commits", float64(c.commits), c.cells)
	rep.set("tcc.aborts", float64(c.aborts), c.cells)
	rep.set("tcc.useful_ratio", ratio(float64(c.commits), float64(c.commits+c.aborts)), c.cells)
	rep.set("tcc.gatings", float64(c.gatings), c.cells)
	rep.set("tcc.renewals", float64(c.renewals), c.cells)
	rep.set("tcc.invalidations", float64(c.invalidations), c.cells)
	rep.set("tcc.l1_miss_ratio", ratio(float64(c.l1Misses), float64(c.l1Hits+c.l1Misses)), c.cells)
	rep.set("model.sim_cycles", float64(c.simCycles), c.cells)
	rep.set("model.speedup_gmean", gmean(c.speedups), len(c.speedups))
	rep.set("model.energy_ratio_gmean", gmean(c.energyRatios), len(c.energyRatios))

	rep.set("trace.overhead_pct", 100*ratio(untraced.cellsPerSec()-ph.cellsPerSec(), untraced.cellsPerSec()), ph.ops)
	rep.note("traced cells/s %.4g vs untraced %.4g", ph.cellsPerSec(), untraced.cellsPerSec())
}

// layerOf maps a Go package path to the layer its CPU time is charged to.
func layerOf(pkg string) string {
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		return strings.SplitN(strings.TrimPrefix(pkg, "repro/internal/"), "/", 2)[0]
	case pkg == "encoding/json":
		return "json"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// packageShares runs `go tool pprof -top` on the CPU profile and returns
// each layer's share of flat CPU time, plus the sample count under
// "samples".
func packageShares(ctx context.Context, profile string) (map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-top", "-nodecount=100000", "-nodefraction=0", "-unit=ms", exe, profile)
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTop(string(out))
}

// parseTop sums `pprof -top -unit=ms` flat times by layer and divides by
// the profile's total.
func parseTop(out string) (map[string]float64, error) {
	flat := map[string]float64{}
	sum := 0.0
	rows := false
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 5 && f[0] == "flat" {
			rows = true
			continue
		}
		if !rows || len(f) < 6 {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof -top row %q: %w", line, err)
		}
		fn := strings.Join(f[5:], " ")
		flat[layerOf(pkgOf(fn))] += v
		sum += v
	}
	shares := map[string]float64{"samples": sum / 10} // pprof samples at 100 Hz
	for layer, v := range flat {
		shares[layer] = ratio(v, sum)
	}
	return shares, nil
}

// pkgOf extracts the package path from a symbol such as
// "repro/internal/sim.(*Engine).fireNext", ignoring type arguments.
func pkgOf(fn string) string {
	if k := strings.IndexAny(fn, "[( "); k >= 0 {
		fn = fn[:k]
	}
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}
