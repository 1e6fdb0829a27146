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
	"repro/internal/workload"
)

// Session is the campaign execution engine behind every sweep in this
// package: a long-lived runner that owns a worker pool (Options.Workers
// goroutines, started lazily), one cross-cell cache and an optional JSONL
// checkpoint sink. The cache holds, per (app, threads, scale, contention,
// seed) trace key, the trace and the ungated baselines run on it, so each
// ungated simulation runs once for all cells with the same trace and
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

	// cacheMu guards the cross-cell cache (cache.go): the entries by
	// trace key (nil after Close) and the idle ones least recently used
	// first.
	cacheMu sync.Mutex
	cache   map[TraceKey]*cacheEntry
	idle    []TraceKey
	stats   sessionStats

	ckpt *Checkpoint
}

// NewSession creates a session for the given options. The worker pool
// starts lazily on first use; Close releases it.
func NewSession(o Options) *Session {
	return &Session{
		opts:     o,
		tasks:    make(chan func(*core.SystemCache)),
		poolStop: make(chan struct{}),
		cache:    make(map[TraceKey]*cacheEntry),
	}
}

// Options returns the options the session was created with.
func (s *Session) Options() Options { return s.opts }

// Close stops the worker pool, closes the checkpoint sink and drops the
// cache with its traces and baselines. Close waits for no in-flight
// work; finish or cancel streams first. A cell that straggles in after
// Close keeps using the cache entry it already holds; a cell submitted
// after Close holds none, so it provisions its own trace and runs its
// own baseline, and keeps neither.
func (s *Session) Close() error {
	var err error
	s.closed.Do(func() {
		close(s.poolStop)
		if s.ckpt != nil {
			err = s.ckpt.Close()
		}
		s.cacheMu.Lock()
		s.cache, s.idle = nil, nil
		s.cacheMu.Unlock()
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
	// "derive=false shard=0/0" are the values of two retired options,
	// kept so every fingerprint the remaining options express keeps its
	// bytes.
	fmt.Fprintf(h, "seed=%d scale=%g w0=%d derive=false shard=0/0 apps=%v procs=%v banks=%d tech=%s topology=%s",
		o.Seed, scale, w0, o.apps(), o.processors(), o.Banks, energy.CanonicalName(o.Tech),
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
// The call holds the cache entry of each of its cells until that cell
// finishes, so a trace or baseline its later cells need is not evicted
// however far apart they sit.
func (s *Session) StreamChan(ctx context.Context, cells []Cell) <-chan CellResult {
	out := make(chan CellResult)
	entries := s.holdEntries(cells)
	go func() {
		defer close(out)
		var wg sync.WaitGroup
		for pos, c := range cells {
			if ctx.Err() != nil {
				for _, e := range entries[pos:] {
					s.release(e)
				}
				break
			}
			pos, c := pos, c
			wg.Add(1)
			s.submit(func(sc *core.SystemCache) {
				defer wg.Done()
				res := s.runCell(ctx, pos, c, entries[pos], sc)
				s.release(entries[pos])
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
// grid — and returns it in canonical cell order.
func (s *Session) Run(ctx context.Context) (*Campaign, error) {
	cells := s.opts.Cells()
	outs, err := s.RunCells(ctx, cells)
	if err != nil {
		return nil, err
	}
	return &Campaign{Options: s.opts, Cells: cells, Outcomes: outs}, nil
}

// runCell produces one cell's result: restored from the checkpoint when
// present there, simulated (and recorded) otherwise. e is the cell's
// cache entry (nil provisions its own trace and runs its own baseline);
// sc is the calling worker's System cache (nil selects fresh
// construction).
func (s *Session) runCell(ctx context.Context, pos int, c Cell, e *cacheEntry, sc *core.SystemCache) CellResult {
	res := CellResult{Pos: pos, Cell: c}
	if s.ckpt != nil {
		if out, ok := s.ckpt.Lookup(c); ok {
			res.Outcome, res.Restored = out, true
			return res
		}
	}
	rs, err := s.cellSpec(c)
	if err == nil {
		rs.Trace, err = s.trace(c, e)
	}
	if err != nil {
		res.Err = err
		return res
	}
	out, err := s.runPair(ctx, rs, e, sc)
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
// provisions nothing.
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

// TraceKey identifies a cell's generated trace: two cells with equal
// keys run on the same workload. W0, the interconnect shape (Cell.Banks,
// Cell.Topology), the technology point and the variant are absent on
// purpose: they change the machine or its pricing, never the workload,
// which is what lets Fig7's W0 sweep and the ablation suite share one
// trace per (app, threads, seed) point. Processor count IS in the key
// (threads): two cells at different machine widths generate different
// workloads even when every other axis matches. The session cache keys
// its traces and baselines on it, and the distributed coordinator keeps
// the adjacent cells that share one in one grant. Pinned by
// TestTraceCacheKeyAudit.
type TraceKey struct {
	app        stamp.App
	threads    int
	scale      float64
	contention Contention
	seed       uint64
}

// TraceKey returns the key of c's trace in a campaign run under these
// options.
func (o Options) TraceKey(c Cell) TraceKey {
	scale := o.Scale
	if scale == 0 {
		scale = 1.0
	}
	return TraceKey{
		app:        c.App,
		threads:    c.Processors,
		scale:      scale,
		contention: c.contentionOrBase(),
		seed:       c.Seed,
	}
}

// provisionTrace generates one cell's trace and counts the generation.
func (s *Session) provisionTrace(c Cell) (*workload.Trace, error) {
	s.stats.traceGenerations.Add(1)
	return generateCellTrace(s.opts.Scale, c)
}

// generateCellTrace builds the cell's trace exactly as an uncached run
// would: the plain preset for base contention at full scale, the
// scaled/contention-shaped spec otherwise. Every scale that is not full
// scale goes through ScaledSpec, which refuses one it cannot size a
// trace by.
func generateCellTrace(scale float64, c Cell) (*workload.Trace, error) {
	shaped := c.Contention != "" && c.Contention != ContentionBase
	if fullScale(scale) && !shaped {
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
