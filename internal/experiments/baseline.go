package experiments

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/tcc"
)

// baselineKey identifies one ungated simulation: the trace it runs and
// the complete machine configuration it runs on. Together they are every
// input of the ungated side of a pair, so two cells with equal keys run
// the identical simulation — exact by construction, with no config field
// argued unused. Cells that differ only in W0 or technology point (Fig 7's
// W0 axis, the energy axis) share a key, because the ungated
// configuration never reads either.
type baselineKey struct {
	trace traceKey
	cfg   config.Config
}

// baseline is one memo slot. The claiming cell sets res or err and then
// closes ready; other cells read them only after ready is closed.
type baseline struct {
	ready chan struct{}
	res   *tcc.Result
	err   error
}

// baselineMemo shares each ungated run across the cells of a session
// that carry its key. A slot lives in slots from its claim on; a failed
// run leaves, a completed one is retained until trim evicts it.
type baselineMemo struct {
	mu    sync.Mutex
	slots map[baselineKey]*baseline
	// done lists the completed slots' keys, oldest first.
	done []baselineKey
	// holds counts, per key, the cells of in-flight RunCells/Stream
	// calls that carry it and have not finished.
	holds map[baselineKey]int
	// limit bounds the completed baselines trim keeps; held ones stay
	// even beyond it.
	limit  int
	closed bool
}

func newBaselineMemo(workers int) *baselineMemo {
	return &baselineMemo{
		slots: make(map[baselineKey]*baseline),
		holds: make(map[baselineKey]int),
		limit: 2 * workers,
	}
}

// acquire returns key's slot and whether the caller claimed it. A claim
// obliges the caller to run the baseline and finish the slot. After
// purge every caller claims a private slot the memo does not keep.
func (m *baselineMemo) acquire(key baselineKey) (*baseline, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if b, ok := m.slots[key]; ok {
		return b, false
	}
	b := &baseline{ready: make(chan struct{})}
	if !m.closed {
		m.slots[key] = b
	}
	return b, true
}

// finish publishes a claimed slot's run. A failed or canceled run is not
// cached: its slot leaves the memo, and cells waiting on it claim the key
// anew.
func (m *baselineMemo) finish(key baselineKey, b *baseline, res *tcc.Result, err error) {
	m.mu.Lock()
	b.res, b.err = res, err
	if m.slots[key] == b {
		if err != nil {
			delete(m.slots, key)
		} else {
			m.done = append(m.done, key)
			m.trim()
		}
	}
	m.mu.Unlock()
	close(b.ready)
}

// hold marks the keys of one call's cells as wanted until release.
func (m *baselineMemo) hold(keys []*baselineKey) {
	m.mu.Lock()
	for _, k := range keys {
		if k != nil {
			m.holds[*k]++
		}
	}
	m.mu.Unlock()
}

// release drops one cell's hold on key (nil is a no-op).
func (m *baselineMemo) release(key *baselineKey) {
	if key == nil {
		return
	}
	m.mu.Lock()
	if m.holds[*key]--; m.holds[*key] == 0 {
		delete(m.holds, *key)
		m.trim()
	}
	m.mu.Unlock()
}

// trim evicts the oldest completed baselines no call holds until at most
// limit remain. A held baseline is never evicted, so a sweep whose
// siblings sit further apart than the window (Fig 7's W0-major order at
// one worker) still shares each baseline. Called with mu held.
func (m *baselineMemo) trim() {
	for i := 0; len(m.done) > m.limit && i < len(m.done); {
		if k := m.done[i]; m.holds[k] == 0 {
			delete(m.slots, k)
			m.done = append(m.done[:i], m.done[i+1:]...)
			continue
		}
		i++
	}
}

// purge drops every retained baseline and stops retaining new ones.
func (m *baselineMemo) purge() {
	m.mu.Lock()
	m.slots = make(map[baselineKey]*baseline)
	m.done = nil
	m.closed = true
	m.mu.Unlock()
}

// holdBaselines computes each cell's memo key, without provisioning its
// trace, and holds the keys for one call. An entry is nil when the memo
// is off or the cell's spec is invalid (runCell reports that error).
func (s *Session) holdBaselines(cells []Cell) []*baselineKey {
	keys := make([]*baselineKey, len(cells))
	if s.opts.NoTraceCache {
		return keys
	}
	for i, c := range cells {
		if rs, err := s.cellSpec(c); err == nil {
			keys[i] = &baselineKey{trace: s.traceKey(c), cfg: rs.Config(false)}
		}
	}
	s.baselines.hold(keys)
	return keys
}

// runPair runs one cell's pair. With a key, the ungated side comes from
// the baseline memo:
//
//  1. the first cell to ask for a key claims it and runs the baseline,
//     then its gated side;
//  2. a cell whose baseline is still running in another cell runs its
//     gated side first and only then waits, so its worker does not idle;
//  3. a failed or canceled claim is not cached, and a waiter then claims
//     the key itself. Errors keep core.RunPairCached's precedence, the
//     ungated side's first, because core.Assemble builds every outcome.
//
// A nil key runs both sides here, exactly as core.RunPairCached.
func (s *Session) runPair(ctx context.Context, rs core.RunSpec, key *baselineKey, sc *core.SystemCache) (*core.Outcome, error) {
	if key == nil {
		s.stats.baselinesRun.Add(1)
		return core.RunPairCached(ctx, rs, sc)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var gated *tcc.Result
	var gatedErr error
	ranGated := false
	runGated := func() {
		gated, gatedErr = core.RunSide(ctx, rs, true, sc)
		ranGated = true
	}
	for {
		b, claimed := s.baselines.acquire(*key)
		if claimed {
			ungated, err := core.RunSide(ctx, rs, false, sc)
			s.baselines.finish(*key, b, ungated, err)
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
	// TraceGenerations counts the traces the session generated. A trace
	// loaded from the on-disk store (Options.TraceDir) is not generated.
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
