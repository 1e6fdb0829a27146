package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"iter"
	"sync"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/stamp"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

// Session is the campaign execution engine behind every sweep in this
// package: a long-lived runner that owns a worker pool (Options.Workers
// goroutines, started lazily), two cross-cell caches and an optional
// JSONL checkpoint sink. The caches are a per-(app, threads, scale,
// contention, seed) trace cache and a shared-baseline memo, which runs
// each ungated simulation once for all cells with the same trace and
// ungated machine (Fig 7's W0 axis, the energy axis). Stats reports which
// caches served the cells. Create one with NewSession, run any number of
// sweeps on it — Run, RunCells, Stream, RunScenarios, Fig7, MultiSeed,
// Ablations — and Close it when done.
//
// Two execution shapes share one engine. Stream yields per-cell results
// in completion order, as they finish; Run and RunCells collect the same
// results and merge them in canonical cell order, so batch output is
// byte-identical for every worker count. Reordering a stream by
// CellResult.Pos reproduces the batch exactly.
type Session struct {
	opts Options

	poolOnce sync.Once
	// tasks carry the pool's work; each worker goroutine passes its own
	// long-lived core.SystemCache into the task, so a stream of same-shape
	// cells reuses one simulated machine per worker (nil when system
	// reuse is disabled or when a task runs inline after Close).
	tasks    chan func(*core.SystemCache)
	poolStop chan struct{}
	closed   sync.Once

	traceMu    sync.Mutex
	traces     map[traceKey]*traceEntry
	traceClock uint64 // logical use counter driving the LRU policy

	baselines *baselineMemo
	stats     sessionStats

	// store is the shared on-disk trace store (Options.TraceDir), opened
	// lazily on the first cache miss and closed with the session. nil
	// when TraceDir is empty or the store failed to open.
	storeOnce sync.Once
	store     *tracestore.Store
	storeErr  error

	ckpt *Checkpoint
}

// NewSession creates a session for the given options. The worker pool
// starts lazily on first use; Close releases it.
func NewSession(o Options) *Session {
	return &Session{
		opts:      o,
		tasks:     make(chan func(*core.SystemCache)),
		poolStop:  make(chan struct{}),
		traces:    make(map[traceKey]*traceEntry),
		baselines: newBaselineMemo(o.workers()),
	}
}

// Options returns the options the session was created with.
func (s *Session) Options() Options { return s.opts }

// Close stops the worker pool, closes the checkpoint sink, drops the
// retained ungated baselines and releases the on-disk trace store, if
// any. Close waits for no in-flight work; finish or cancel streams first.
// Store-loaded traces alias mmap'd regions Close unmaps, so the
// in-process trace cache is purged with it — a task that straggles in
// after Close regenerates inline instead of touching unmapped memory.
func (s *Session) Close() error {
	var err error
	s.closed.Do(func() {
		close(s.poolStop)
		if s.ckpt != nil {
			err = s.ckpt.Close()
		}
		s.traceMu.Lock()
		s.traces = make(map[traceKey]*traceEntry)
		st := s.store
		s.traceMu.Unlock()
		s.baselines.purge()
		if st != nil {
			if cerr := st.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	})
	return err
}

// SetCheckpoint attaches a JSONL checkpoint sink at path: every completed
// cell is appended as one JSON line, and cells already recorded there are
// restored without re-running. An interrupted campaign re-run with the
// same options and checkpoint path therefore restarts at the first
// incomplete cell and produces output identical to an uninterrupted run.
// The file is validated against the session's options fingerprint, so a
// checkpoint cannot silently resume a different campaign.
func (s *Session) SetCheckpoint(path string) error {
	ck, err := OpenCheckpoint(path, s.opts.Fingerprint())
	if err != nil {
		return err
	}
	s.ckpt = ck
	return nil
}

// Checkpoint returns the attached checkpoint sink, or nil.
func (s *Session) Checkpoint() *Checkpoint { return s.ckpt }

// Fingerprint identifies the result-relevant option fields (everything
// except parallelism and cache knobs, which cannot change results). The
// checkpoint sink stores it so a resume onto different options fails
// loudly instead of mixing campaigns. Zero-value sentinels are
// normalized to the defaults they select (Scale 0 -> 1.0, W0 0 -> the
// default window), so spelling an option out never invalidates a
// checkpoint written with it defaulted.
func (o Options) Fingerprint() string {
	scale := o.Scale
	if scale == 0 {
		scale = 1.0
	}
	w0 := o.W0
	if w0 == 0 {
		w0 = matrixDefaultW0
	}
	h := sha256.New()
	fmt.Fprintf(h, "seed=%d scale=%g w0=%d derive=%t shard=%d/%d apps=%v procs=%v banks=%d tech=%s topology=%s",
		o.Seed, scale, w0, o.DeriveSeeds, o.Shard.Index, o.Shard.Count,
		o.apps(), o.processors(), o.Banks, energy.CanonicalName(o.Tech),
		canonicalTopology(o.Topology))
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// startPool launches the worker goroutines. They live until Close. Each
// worker owns one SystemCache for its whole life, so consecutive cells it
// picks up reuse the same simulated machine whenever shapes match.
func (s *Session) startPool() {
	for w := 0; w < s.opts.workers(); w++ {
		go func() {
			var sc *core.SystemCache
			if !s.opts.NoSystemReuse {
				sc = &core.SystemCache{}
			}
			for {
				select {
				case f := <-s.tasks:
					f(sc)
				case <-s.poolStop:
					return
				}
			}
		}()
	}
}

// submit hands f to the pool, blocking while all workers are busy. After
// Close the task runs inline (with no System cache) so pending dispatch
// can still drain.
func (s *Session) submit(f func(*core.SystemCache)) {
	s.poolOnce.Do(s.startPool)
	select {
	case s.tasks <- f:
	case <-s.poolStop:
		f(nil)
	}
}

// CellResult is one completed cell of a streamed campaign.
type CellResult struct {
	// Pos is the cell's position in the slice passed to Stream/RunCells.
	// Sorting streamed results by Pos reproduces the batch order, and
	// with it the byte-identical batch reports and CSV.
	Pos int
	// Cell is the cell that ran.
	Cell Cell
	// Outcome is the paired-run result; nil when Err is set.
	Outcome *core.Outcome
	// Restored marks a result replayed from the checkpoint sink instead
	// of simulated in this process.
	Restored bool
	// Err is the cell's failure, if any. The iterator form of Stream
	// yields it as the second value instead.
	Err error
}

// StreamChan is the channel form of Stream: it launches the cells on the
// worker pool and returns a channel delivering each cell's result as it
// completes (completion order, not canonical order). The channel closes
// once every launched cell has been delivered or the context is canceled.
// The caller must drain the channel or cancel ctx; an abandoned,
// uncancelled stream would hold pool workers forever.
//
// The call holds the shared-baseline key of each of its cells until that
// cell finishes, so a baseline its later cells need is not evicted
// however far apart they sit.
func (s *Session) StreamChan(ctx context.Context, cells []Cell) <-chan CellResult {
	out := make(chan CellResult)
	keys := s.holdBaselines(cells)
	go func() {
		defer close(out)
		var wg sync.WaitGroup
		for pos, c := range cells {
			if ctx.Err() != nil {
				for _, k := range keys[pos:] {
					s.baselines.release(k)
				}
				break
			}
			pos, c := pos, c
			wg.Add(1)
			s.submit(func(sc *core.SystemCache) {
				defer wg.Done()
				res := s.runCell(ctx, pos, c, keys[pos], sc)
				s.baselines.release(keys[pos])
				s.stats.addSystems(sc)
				select {
				case out <- res:
				case <-ctx.Done():
				}
			})
		}
		wg.Wait()
	}()
	return out
}

// Stream executes the cells on the worker pool and yields each result as
// it completes, in completion order. A cell that fails yields its error
// and the stream continues; when ctx is canceled the stream stops
// promptly and yields a final (CellResult{Pos: -1}, ctx.Err()). Breaking
// out of the loop cancels the remaining cells. Collecting the results and
// sorting by Pos reproduces Run's canonical-order output exactly.
func (s *Session) Stream(ctx context.Context, cells []Cell) iter.Seq2[CellResult, error] {
	return func(yield func(CellResult, error) bool) {
		ictx, cancel := context.WithCancel(ctx)
		defer cancel()
		ch := s.StreamChan(ictx, cells)
		for res := range ch {
			if ctx.Err() != nil {
				break
			}
			if !yield(res, res.Err) {
				// Consumer stopped: cancel outstanding cells and drain
				// the channel so no pool worker stays blocked on send.
				cancel()
				for range ch {
				}
				return
			}
		}
		if err := ctx.Err(); err != nil {
			yield(CellResult{Pos: -1}, err)
		}
	}
}

// RunCells executes the cells and returns their outcomes in the given
// (canonical) order — the batch form of Stream. For the same cells every
// worker count produces identical outcomes, and on failure the error of
// the lowest-position failing cell is returned, so error reporting is
// deterministic too.
func (s *Session) RunCells(ctx context.Context, cells []Cell) ([]*core.Outcome, error) {
	outs := make([]*core.Outcome, len(cells))
	errs := make([]error, len(cells))
	for res := range s.StreamChan(ctx, cells) {
		outs[res.Pos], errs[res.Pos] = res.Outcome, res.Err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiments: cell %d (%s): %w", cells[i].Index, cells[i].Label(), err)
		}
	}
	return outs, nil
}

// Run executes the session's configured campaign — the options' cell
// grid, restricted to the options' shard — and returns it in canonical
// cell order.
func (s *Session) Run(ctx context.Context) (*Campaign, error) {
	cells, err := ShardCells(s.opts.Cells(), s.opts.Shard)
	if err != nil {
		return nil, err
	}
	outs, err := s.RunCells(ctx, cells)
	if err != nil {
		return nil, err
	}
	return &Campaign{Options: s.opts, Cells: cells, Outcomes: outs}, nil
}

// runCell produces one cell's result: restored from the checkpoint when
// present there, simulated (and recorded) otherwise. key is the cell's
// shared-baseline key (nil runs its own baseline); sc is the calling
// worker's System cache (nil selects fresh construction).
func (s *Session) runCell(ctx context.Context, pos int, c Cell, key *baselineKey, sc *core.SystemCache) CellResult {
	res := CellResult{Pos: pos, Cell: c}
	if s.ckpt != nil {
		if out, ok := s.ckpt.Lookup(c); ok {
			res.Outcome, res.Restored = out, true
			return res
		}
	}
	rs, err := s.cellSpec(c)
	if err == nil {
		rs.Trace, err = s.trace(c)
	}
	if err != nil {
		res.Err = err
		return res
	}
	out, err := s.runPair(ctx, rs, key, sc)
	if err != nil {
		res.Err = err
		return res
	}
	res.Outcome = out
	if s.ckpt != nil {
		if err := s.ckpt.Record(c, out); err != nil {
			res.Err = fmt.Errorf("checkpoint: %w", err)
		}
	}
	return res
}

// cellSpec builds the core.RunSpec for one cell, all but its trace: the
// machine-config mutation from the cell's interconnect shape and
// variant, and the power model from the cell's technology point. It
// provisions nothing, so the cell's shared-baseline key costs no trace.
func (s *Session) cellSpec(c Cell) (core.RunSpec, error) {
	rs := core.RunSpec{App: c.App, Processors: c.Processors, Seed: c.Seed, W0: c.W0}
	tech, err := energy.Resolve(c.Tech)
	if err != nil {
		return core.RunSpec{}, err
	}
	rs.Model = tech.Model()
	configure, err := variantConfigure(c.Variant)
	if err != nil {
		return core.RunSpec{}, err
	}
	if banks := c.Banks; banks > 0 {
		variant := configure
		configure = func(cfg *config.Config) {
			cfg.Machine.Banks = banks
			if variant != nil {
				variant(cfg)
			}
		}
	}
	if topo := c.Topology; topo != "" {
		inner := configure
		configure = func(cfg *config.Config) {
			cfg.Machine.Topology = topo
			if inner != nil {
				inner(cfg)
			}
		}
	}
	rs.Configure = configure
	return rs, nil
}

// traceKey identifies a generated trace. W0, the interconnect shape
// (Cell.Banks, Cell.Topology) and the variant are absent on purpose:
// they change the machine, never the workload, which is what lets Fig7's
// W0 sweep and the ablation suite share one trace per (app, threads,
// seed) point. Processor count IS in the key
// (threads): two cells at different machine widths generate different
// workloads even when every other axis matches. Pinned by
// TestTraceCacheKeyAudit.
type traceKey struct {
	app        stamp.App
	threads    int
	scale      float64
	contention Contention
	seed       uint64
}

// traceEntry is a once-guarded cache slot, so concurrent cells needing
// the same trace generate it exactly once and share the result. Traces
// are read-only during simulation (RunPair already shares one trace
// across both runs of a pair), so sharing across concurrent cells is
// safe. lastUse and useCount (guarded by traceMu) drive the
// reuse-count-aware LRU eviction policy.
type traceEntry struct {
	once sync.Once
	tr   *workload.Trace
	err  error

	lastUse  uint64
	useCount uint64
}

// maxCachedTraces bounds the session trace cache. Sweeps that profit
// from the cache (Fig7's W0 axis, ablation variants, the paired-run
// sharing inside a cell) need only a handful of workload keys live at
// once; a long multi-seed campaign would otherwise accumulate every
// seed's traces until Close. Above the bound the reuse-count-aware LRU
// policy evicts the least valuable entry — regeneration is
// deterministic, so eviction can never change results, only cost a
// re-generation.
const maxCachedTraces = 64

// evictTrace drops the least valuable cache entry: among the entries with
// the lowest reuse count, the least recently used one. Keying the victim
// choice on reuse first keeps the hot keys of a Fig7 or ablation sweep —
// one trace serving a whole W0/variant axis — resident through floods of
// single-use keys (a multi-seed campaign's per-seed workloads), which
// plain LRU would let push them out. Called with traceMu held. The choice
// is deterministic: (useCount, lastUse) pairs are unique per entry
// because lastUse is a strictly increasing logical clock.
func (s *Session) evictTrace() {
	var victim traceKey
	var best *traceEntry
	for k, e := range s.traces {
		if best == nil || e.useCount < best.useCount ||
			(e.useCount == best.useCount && e.lastUse < best.lastUse) {
			victim, best = k, e
		}
	}
	if best != nil {
		delete(s.traces, victim)
	}
}

// traceStore lazily opens the on-disk store named by Options.TraceDir.
// Opening happens at most once per session; a failure to open (an
// uncreatable directory) is sticky and fails the cells that needed it —
// loudly, because the user asked for the store by flag.
func (s *Session) traceStore() (*tracestore.Store, error) {
	s.storeOnce.Do(func() {
		st, err := tracestore.Open(s.opts.TraceDir, tracestore.Options{})
		if err != nil {
			s.storeErr = err
			return
		}
		s.traceMu.Lock()
		s.store = st
		s.traceMu.Unlock()
	})
	return s.store, s.storeErr
}

// provisionTrace materializes one cell's trace the cheapest correct way:
// from the on-disk store when Options.TraceDir names one (loading a
// published entry, or generating-and-publishing under the store's
// cross-process single-flight lock), by direct generation otherwise.
// Generation is deterministic, so every path yields identical bytes.
func (s *Session) provisionTrace(c Cell) (*workload.Trace, error) {
	generate := func() (*workload.Trace, error) {
		s.stats.traceGenerations.Add(1)
		return generateCellTrace(s.opts.Scale, c)
	}
	if s.opts.TraceDir == "" {
		return generate()
	}
	st, err := s.traceStore()
	if err != nil {
		return nil, fmt.Errorf("experiments: trace store: %w", err)
	}
	scale := s.opts.Scale
	if scale == 0 {
		scale = 1.0
	}
	key := tracestore.Key{
		App:        string(c.App),
		Threads:    c.Processors,
		Scale:      scale,
		Contention: string(c.contentionOrBase()),
		Seed:       c.Seed,
	}
	return st.GetOrGenerate(key, generate)
}

// trace returns the cell's workload trace, generating it on first use and
// serving every later request for the same (app, threads, scale,
// contention, seed) from the cache.
func (s *Session) trace(c Cell) (*workload.Trace, error) {
	if s.opts.NoTraceCache {
		return s.provisionTrace(c)
	}
	key := s.traceKey(c)
	s.traceMu.Lock()
	e, ok := s.traces[key]
	if ok {
		s.stats.traceHits.Add(1)
	} else {
		if len(s.traces) >= maxCachedTraces {
			s.evictTrace()
		}
		e = &traceEntry{}
		s.traces[key] = e
	}
	s.traceClock++
	e.lastUse = s.traceClock
	e.useCount++
	s.traceMu.Unlock()
	e.once.Do(func() {
		e.tr, e.err = s.provisionTrace(c)
	})
	return e.tr, e.err
}

// traceKey is the key of c's trace in the session cache.
func (s *Session) traceKey(c Cell) traceKey {
	scale := s.opts.Scale
	if scale == 0 {
		scale = 1.0
	}
	return traceKey{
		app:        c.App,
		threads:    c.Processors,
		scale:      scale,
		contention: c.contentionOrBase(),
		seed:       c.Seed,
	}
}

// generateCellTrace builds the cell's trace exactly as an uncached run
// would: the plain preset for base contention at full scale, the
// scaled/contention-shaped spec otherwise.
func generateCellTrace(scale float64, c Cell) (*workload.Trace, error) {
	scaled := scale > 0 && scale != 1.0
	shaped := c.Contention != "" && c.Contention != ContentionBase
	if !scaled && !shaped {
		return stamp.Generate(c.App, c.Processors, c.Seed)
	}
	spec, err := ScaledSpec(c.App, c.Processors, scale)
	if err != nil {
		return nil, err
	}
	if shaped {
		spec = c.Contention.Apply(spec)
	}
	return spec.Generate(c.Processors, c.Seed)
}
