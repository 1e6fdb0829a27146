package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"
)

// A workload is one benchmark input: a set-up, then an unbounded stream
// of operations numbered from 0, run by a fixed number of closed-loop
// clients. Operations are grouped into rounds of equal shape; a timed
// phase starts no new round once its time is up, so every phase measures
// whole rounds and every round's output can be hashed and checked.
type workload struct {
	name     string
	clients  int
	roundOps int
	// goldenRounds is how many leading rounds bench/golden pins for
	// seeds 1 and 2. Every phase runs at least this many, so the pinned
	// rounds are always checked and caches that fill over a campaign are
	// full when peak memory is read.
	goldenRounds int
	setup        func(ctx context.Context, cfg runConfig, rep int) (instance, error)
}

// An instance is a set-up workload.
type instance interface {
	// op runs operation i and returns its share of the round's CSV. With
	// a tracer it rebuilds the operation from the layer calls and records
	// a span around each.
	op(ctx context.Context, tr *tracer, client, i int) ([]byte, error)
	// cellsPerOp is how many cells one operation simulates or prices.
	cellsPerOp() int
	// verify cross-checks round 0's outputs against an independent path.
	verify(ctx context.Context, round0 [][]byte) error
	// describe adds the workload's settings and notes to the report.
	describe(rep *report)
	close() error
}

var workloads = []*workload{paperGrid, nocFabric, fleetPaper, repriceJournal}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// run sets the workload up, measures it and checks its outputs.
func run(ctx context.Context, w *workload, cfg runConfig) (*report, error) {
	rep := &report{res: result{Metrics: map[string]metric{}}, cond: newConditions(w, cfg)}
	inst, setups, err := setUp(ctx, w, cfg)
	if err != nil {
		return nil, err
	}
	defer inst.close()

	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	g0 := readGoStats()
	ph := runPhase(ctx, w, inst, nil, cfg.seconds, cfg.minOps(w))
	g1 := readGoStats()
	peak, err := peakRSS()
	if err != nil {
		return nil, err
	}
	rep.account(w, ph)

	if cfg.trace {
		tph, err := tracedRun(ctx, w, inst, cfg, rep, ph, g1.sub(g0))
		if err != nil {
			return nil, err
		}
		rep.account(w, tph)
		rep.compareTraced(w, ph.digests, tph.digests)
	} else {
		lat := ms(ph.lat)
		rep.set("cells_per_s", ph.cellsPerSec(), ph.ops)
		rep.set("op_ms_p50", quantile(lat, 0.5), len(lat))
		rep.set("op_ms_p90", quantile(lat, 0.9), len(lat))
		rep.set("setup_s", quantile(setups, 0.5), len(setups))
		rep.set("peak_rss_mb", peak, 1)
	}

	if err := inst.verify(ctx, ph.round0); err != nil {
		rep.fail(w, "cross-check: %v", err)
	} else {
		rep.note("cross-check of round 0 passed")
	}
	rep.checkGolden(w, cfg, ph.digests)
	inst.describe(rep)
	rep.cond.Settings["clients"] = strconv.Itoa(w.clients)
	rep.cond.Settings["round_ops"] = strconv.Itoa(w.roundOps)
	rep.cond.Settings["rounds"] = strconv.Itoa(len(ph.digests))
	rep.cond.Settings["cells_per_op"] = strconv.Itoa(inst.cellsPerOp())
	// A failed check counts one cell, which may be a cell whose operation
	// already failed.
	rep.res.Failed = min(rep.res.Failed, rep.res.Attempted)
	rep.res.Correct = rep.res.Failed == 0
	return rep, nil
}

// setUp runs the workload's set-up cfg.setupReps times, keeping the last
// instance, and returns each set-up's seconds.
func setUp(ctx context.Context, w *workload, cfg runConfig) (instance, []float64, error) {
	var inst instance
	var secs []float64
	for k := 0; k < max(cfg.setupReps, 1); k++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, nil, err
			}
		}
		t := time.Now()
		next, err := w.setup(ctx, cfg, k)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		secs = append(secs, time.Since(t).Seconds())
		inst = next
	}
	return inst, secs, nil
}

// phase is the outcome of one timed loop.
type phase struct {
	ops         int
	cells       int
	failedCells int
	errs        []error
	lat         []time.Duration
	elapsed     time.Duration
	// digests holds the SHA-256 of each round's CSV; "" marks a round
	// with a failed operation.
	digests []string
	round0  [][]byte
}

func (p *phase) cellsPerSec() float64 { return ratio(float64(p.cells), p.elapsed.Seconds()) }

// runPhase runs the workload's clients in a closed loop until d has
// passed and the next operation starts a round, but never before minOps
// operations have run.
func runPhase(ctx context.Context, w *workload, inst instance, tr *tracer, d time.Duration, minOps int) *phase {
	p := &phase{}
	var mu sync.Mutex
	next := 0
	pending := map[int][][]byte{}
	finished := map[int]int{}
	failed := map[int]bool{}
	digests := map[int]string{}
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				if i%w.roundOps == 0 && i >= minOps && time.Since(start) >= d {
					mu.Unlock()
					return
				}
				next++
				mu.Unlock()

				t := time.Now()
				out, err := inst.op(ctx, tr, c, i)
				lat := time.Since(t)

				r, j := i/w.roundOps, i%w.roundOps
				mu.Lock()
				p.lat = append(p.lat, lat)
				if err != nil {
					failed[r] = true
					p.failedCells += inst.cellsPerOp()
					p.errs = append(p.errs, fmt.Errorf("op %d: %w", i, err))
				}
				if pending[r] == nil {
					pending[r] = make([][]byte, w.roundOps)
				}
				pending[r][j] = out
				if finished[r]++; finished[r] == w.roundOps {
					if !failed[r] {
						digests[r] = digest(pending[r]...)
					}
					if r == 0 {
						p.round0 = pending[r]
					}
					delete(pending, r)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.ops = next
	p.cells = next * inst.cellsPerOp()
	p.digests = make([]string, next/w.roundOps)
	for r := range p.digests {
		p.digests[r] = digests[r]
	}
	return p
}

func digest(parts ...[]byte) string {
	h := sha256.New()
	for _, b := range parts {
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// account adds a phase's attempts and failures to the result.
func (r *report) account(w *workload, p *phase) {
	r.res.Attempted += p.cells
	r.res.Failed += p.failedCells
	for k, err := range p.errs {
		if k == 3 {
			r.note("%d more failed operations", len(p.errs)-k)
			break
		}
		r.note("FAIL %s: %v", w.name, err)
	}
}

// fail records a failed check, counted as one failed cell.
func (r *report) fail(w *workload, format string, args ...any) {
	r.res.Failed++
	r.note("FAIL %s: "+format, append([]any{w.name}, args...)...)
}

// compareTraced checks that every round both the untraced and the traced
// phase completed has the same digest in both.
func (r *report) compareTraced(w *workload, untraced, traced []string) {
	n := min(len(untraced), len(traced))
	for k := 0; k < n; k++ {
		if untraced[k] != traced[k] {
			r.fail(w, "traced round %d differs from the untraced one", k)
			return
		}
	}
	r.note("traced run vs untraced run: %d rounds byte-identical", n)
}

// checkGolden compares the leading round digests against
// bench/golden/<workload>.seed<N>.sha256, or rewrites that file when
// -update-golden is set. Seeds without a golden file are reported as
// unchecked.
func (r *report) checkGolden(w *workload, cfg runConfig, digests []string) {
	path := filepath.Join(cfg.goldenDir, fmt.Sprintf("%s.seed%d.sha256", w.name, cfg.seed))
	if cfg.updateGolden {
		var b strings.Builder
		for k := 0; k < w.goldenRounds; k++ {
			if digests[k] == "" {
				r.fail(w, "golden: round %d failed, not written", k)
				return
			}
			fmt.Fprintf(&b, "%s  round-%d\n", digests[k], k)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			r.fail(w, "write golden: %v", err)
			return
		}
		r.note("golden: wrote %s", path)
		return
	}
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		r.note("golden: unchecked (no golden for seed %d)", cfg.seed)
		return
	}
	if err != nil {
		r.fail(w, "read golden: %v", err)
		return
	}
	want := strings.Fields(string(raw))
	checked := 0
	for k := 0; k < len(digests) && 2*k < len(want); k++ {
		if digests[k] != want[2*k] {
			r.fail(w, "golden: round %d digest %s, want %s", k, digests[k], want[2*k])
			return
		}
		checked++
	}
	r.note("golden: %d of %d pinned rounds match %s", checked, len(want)/2, path)
}

// goStats is a snapshot of the Go runtime's allocation and GC counters.
type goStats struct {
	mallocs, allocBytes uint64
	gcs                 uint32
	gcCPU, totalCPU     float64
}

func readGoStats() goStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return goStats{
		mallocs:    m.Mallocs,
		allocBytes: m.TotalAlloc,
		gcs:        m.NumGC,
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
	}
}

func (g goStats) sub(h goStats) goStats {
	return goStats{g.mallocs - h.mallocs, g.allocBytes - h.allocBytes, g.gcs - h.gcs, g.gcCPU - h.gcCPU, g.totalCPU - h.totalCPU}
}

// resetPeakRSS returns freed memory to the OS and resets the kernel's
// high-water mark, so peakRSS covers only what follows.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSS reads VmHWM in MiB.
func peakRSS() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
