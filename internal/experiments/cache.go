package experiments

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/tcc"
	"repro/internal/workload"
)

// cacheEntry is one trace key's slot in the session cache: the trace,
// provisioned once, and the ungated baselines run on it. Traces and
// results are read-only once built, so concurrent cells share them
// safely. A baseline is keyed by the complete ungated machine
// configuration; with the trace key that is every input of the ungated
// side of a pair, so two cells sharing a baseline run the identical
// simulation — exact by construction, with no config field argued unused.
// Cells that differ only in W0 or technology point (Fig 7's W0 axis, the
// energy axis) share a baseline, because the ungated configuration never
// reads either.
type cacheEntry struct {
	key  TraceKey
	once sync.Once
	tr   *workload.Trace
	err  error

	// baselines and holds are guarded by Session.cacheMu. holds counts
	// the unfinished cells of in-flight RunCells/Stream calls that carry
	// the key.
	baselines map[config.Config]*baseline
	holds     int
}

// baseline is one ungated run's slot. The claiming cell sets res or err
// and then closes ready; other cells read them only after ready is
// closed.
type baseline struct {
	ready chan struct{}
	res   *tcc.Result
	err   error
}

// retainedEntries bounds the cache entries no in-flight call holds; the
// least recently released goes first. Held entries stay however many
// there are, so within one call a trace and its baselines are shared
// across any distance between cells. Across calls the bound must cover
// the end-to-end benchmark's reuse distances: paper-grid's siblings are
// back-to-back one-cell calls, and noc-fabric cycles 6 trace keys across
// its 5 shapes, where a bound below about 8 would regenerate 24 of 30
// traces per round. Regeneration is deterministic, so eviction can only
// cost time, never change results.
const retainedEntries = 16

// holdEntries returns each cell's cache entry, created on first use and
// held until release. Entries are nil when the cache is off or the
// session is closed: those cells provision their own trace and run their
// own baseline.
func (s *Session) holdEntries(cells []Cell) []*cacheEntry {
	entries := make([]*cacheEntry, len(cells))
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	if s.opts.NoTraceCache || s.cache == nil {
		return entries
	}
	for i, c := range cells {
		key := s.opts.TraceKey(c)
		e, ok := s.cache[key]
		if !ok {
			e = &cacheEntry{key: key, baselines: make(map[config.Config]*baseline)}
			s.cache[key] = e
		} else if e.holds == 0 {
			s.idle = slices.DeleteFunc(s.idle, func(k TraceKey) bool { return k == key })
		}
		e.holds++
		entries[i] = e
	}
	return entries
}

// release drops one cell's hold on e (nil is a no-op). An entry whose
// last hold goes becomes the most recently used idle one, and the least
// recently used idle entries beyond retainedEntries are evicted.
func (s *Session) release(e *cacheEntry) {
	if e == nil {
		return
	}
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	if e.holds--; e.holds > 0 || s.cache == nil {
		return
	}
	s.idle = append(s.idle, e.key)
	for len(s.idle) > retainedEntries {
		delete(s.cache, s.idle[0])
		s.idle = slices.Delete(s.idle, 0, 1)
	}
}

// trace returns the cell's workload trace: provisioned on first use and
// shared by every later cell holding the same entry, or provisioned for
// this cell alone when e is nil.
func (s *Session) trace(c Cell, e *cacheEntry) (*workload.Trace, error) {
	if e == nil {
		return s.provisionTrace(c)
	}
	hit := true
	e.once.Do(func() {
		hit = false
		e.tr, e.err = s.provisionTrace(c)
	})
	if hit {
		s.stats.traceHits.Add(1)
	}
	return e.tr, e.err
}

// claim returns the slot of e's baseline on cfg and whether the caller
// claimed it. A claim obliges the caller to run the baseline and publish
// the slot.
func (s *Session) claim(e *cacheEntry, cfg config.Config) (*baseline, bool) {
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	if b, ok := e.baselines[cfg]; ok {
		return b, false
	}
	b := &baseline{ready: make(chan struct{})}
	e.baselines[cfg] = b
	return b, true
}

// publish finishes a claimed slot with its run. A failed or canceled run
// is not cached: its slot leaves the entry, and cells waiting on it claim
// the baseline anew.
func (s *Session) publish(e *cacheEntry, cfg config.Config, b *baseline, res *tcc.Result, err error) {
	s.cacheMu.Lock()
	b.res, b.err = res, err
	if err != nil && e.baselines[cfg] == b {
		delete(e.baselines, cfg)
	}
	s.cacheMu.Unlock()
	close(b.ready)
}

// runPair runs one cell's pair. With a cache entry, the ungated side is
// the entry's baseline on the cell's ungated configuration:
//
//  1. the first cell to ask for a baseline claims it and runs it, then
//     its gated side;
//  2. a cell whose baseline is still running in another cell runs its
//     gated side first and only then waits, so its worker does not idle;
//  3. a failed or canceled claim is not cached, and a waiter then claims
//     the baseline itself. Errors keep core.RunPair's precedence, the
//     ungated side's first, because core.Assemble builds every outcome.
//
// A nil entry runs both sides here, exactly as core.RunPair.
func (s *Session) runPair(ctx context.Context, rs core.RunSpec, e *cacheEntry, sc *core.SystemCache) (*core.Outcome, error) {
	if e == nil {
		s.stats.baselinesRun.Add(1)
		return core.RunPair(ctx, rs, sc)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg := rs.Config(false)
	var gated *tcc.Result
	var gatedErr error
	ranGated := false
	runGated := func() {
		gated, gatedErr = core.RunSide(ctx, rs, true, sc, nil)
		ranGated = true
	}
	for {
		b, claimed := s.claim(e, cfg)
		if claimed {
			ungated, err := core.RunSide(ctx, rs, false, sc, nil)
			s.publish(e, cfg, b, ungated, err)
			s.stats.baselinesRun.Add(1)
			if err == nil && !ranGated {
				runGated()
			}
			return core.Assemble(ctx, rs, ungated, err, gated, gatedErr)
		}
		select {
		case <-b.ready:
		default:
			if !ranGated {
				s.stats.baselinesWaited.Add(1)
				runGated()
			}
			select {
			case <-b.ready:
			case <-ctx.Done():
				return core.Assemble(ctx, rs, nil, ctx.Err(), gated, gatedErr)
			}
		}
		if b.err != nil {
			continue
		}
		s.stats.baselinesShared.Add(1)
		if !ranGated {
			runGated()
		}
		return core.Assemble(ctx, rs, b.res, nil, gated, gatedErr)
	}
}

// Stats is a snapshot of which caches served a session's cells, counted
// over the session's life.
type Stats struct {
	// TraceGenerations counts the traces the session generated.
	TraceGenerations uint64
	// TraceHits counts trace requests the in-process cache served.
	TraceHits uint64
	// BaselinesRun counts the ungated simulations the session ran.
	BaselinesRun uint64
	// BaselinesShared counts the cells whose ungated side was a baseline
	// another cell ran.
	BaselinesShared uint64
	// BaselinesWaited counts the cells that found their baseline still
	// running in another cell. They ran their gated side before waiting;
	// if that run then failed, they ran the baseline themselves.
	BaselinesWaited uint64
	// SystemReuses and SystemRebuilds sum the workers' core.SystemCache
	// counters: runs on a machine reset in place, and runs that built one.
	SystemReuses   uint64
	SystemRebuilds uint64
}

// sessionStats holds the live counters behind Stats.
type sessionStats struct {
	traceGenerations, traceHits                    atomic.Uint64
	baselinesRun, baselinesShared, baselinesWaited atomic.Uint64
	systemReuses, systemRebuilds                   atomic.Uint64
}

// addSystems moves a worker's System cache counts into the session's.
func (st *sessionStats) addSystems(sc *core.SystemCache) {
	if sc == nil {
		return
	}
	st.systemReuses.Add(sc.Reuses)
	st.systemRebuilds.Add(sc.Rebuilds)
	sc.Reuses, sc.Rebuilds = 0, 0
}

// Stats returns the session's cache counters. Counting costs one atomic
// add per event, whether or not Stats is ever called.
func (s *Session) Stats() Stats {
	st := &s.stats
	return Stats{
		TraceGenerations: st.traceGenerations.Load(),
		TraceHits:        st.traceHits.Load(),
		BaselinesRun:     st.baselinesRun.Load(),
		BaselinesShared:  st.baselinesShared.Load(),
		BaselinesWaited:  st.baselinesWaited.Load(),
		SystemReuses:     st.systemReuses.Load(),
		SystemRebuilds:   st.systemRebuilds.Load(),
	}
}
