package tcc

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/cm"
	"repro/internal/config"
	"repro/internal/directory"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tokens"
	"repro/internal/trace"
	"repro/internal/workload"
)

// System is the complete simulated machine for one run of one trace.
type System struct {
	cfg    config.Config
	eng    *sim.Engine
	bus    bus.Interconnect
	geom   *mem.Geometry
	vendor *tokens.Vendor
	dirs   []*directory.Directory
	procs  []*Processor

	ledger   *stats.Ledger
	counters stats.Counters

	done           int
	endTime        sim.Time
	tryGrantQueued bool
	tryGrantFn     func() // pre-bound deferred grant round
	traceName      string
	rec            *trace.Recorder
	cancel         func() error

	// Reused grant-round scratch: candidate list and claimed-directory
	// flags (with the claim list that un-sets them), cleared after every
	// round.
	candScratch []grantCand
	grantedDirs []bool
	claimedList []int
}

// grantCand is one commit-wait processor considered by a grant round.
type grantCand struct {
	p   *Processor
	tid tokens.TID
}

// SetCancel installs a hook polled periodically (on event-count
// boundaries) while Run executes; when it returns a non-nil error the
// simulation stops and Run returns that error. This is how context
// cancellation reaches a run in flight. A nil hook (the default) adds no
// per-event overhead.
func (s *System) SetCancel(f func() error) { s.cancel = f }

// NewSystem builds a machine from the configuration and wires the trace's
// threads onto the processors. The trace must have exactly
// cfg.Machine.Processors threads.
func NewSystem(cfg config.Config, trace *workload.Trace) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if trace.NumThreads() != cfg.Machine.Processors {
		return nil, fmt.Errorf("tcc: trace has %d threads but machine has %d processors",
			trace.NumThreads(), cfg.Machine.Processors)
	}
	geom, err := mem.NewGeometry(uint64(cfg.Machine.L1LineBytes), cfg.Machine.Directories, cfg.Machine.MemoryBytes)
	if err != nil {
		return nil, err
	}
	if err := trace.Validate(geom); err != nil {
		return nil, err
	}
	s := &System{
		cfg:    cfg,
		eng:    sim.NewEngine(),
		geom:   geom,
		vendor: tokens.NewVendor(),
		ledger: stats.NewLedger(cfg.Machine.Processors),
	}
	s.traceName = trace.Name
	s.bus = bus.NewInterconnect(s.eng, cfg.Machine.BusCycles, cfg.Machine.Banks,
		cfg.Machine.Processors, cfg.Machine.Topology)
	s.tryGrantFn = func() {
		s.tryGrantQueued = false
		s.tryGrant()
	}
	s.grantedDirs = make([]bool, cfg.Machine.Directories)

	policy := policyFor(cfg.Gating)
	s.dirs = make([]*directory.Directory, cfg.Machine.Directories)
	for i := range s.dirs {
		s.dirs[i] = directory.New(i, s.eng, s.bus, cfg.Machine, cfg.Gating, policy, &s.counters)
	}

	s.procs = make([]*Processor, cfg.Machine.Processors)
	ports := make([]directory.ProcessorPort, cfg.Machine.Processors)
	for i := range s.procs {
		l1 := cache.MustNew(geom, cache.Config{SizeBytes: cfg.Machine.L1SizeBytes, Ways: cfg.Machine.L1Ways})
		s.procs[i] = newProcessor(i, s, l1, &trace.Threads[i])
		ports[i] = s.procs[i]
	}
	for _, d := range s.dirs {
		d.Attach(ports, s.scheduleTryGrant)
	}
	return s, nil
}

// ErrShapeChange is returned by Reset when the new configuration's
// machine shape differs from the one the System was built for. Callers
// holding a cached System detect it with errors.Is and fall back to fresh
// construction; it never indicates an invalid configuration or trace.
var ErrShapeChange = errors.New("tcc: machine shape changed, System must be rebuilt")

// Reset rewinds the System for a new run on the same machine shape:
// engine, interconnect, token vendor, directories, caches and processors
// all return to their initial state in place, keeping their allocated
// storage, and the trace's threads are rewired onto the processors. The
// gating knobs (enabled, W0, policy, renewal) may differ from the
// previous run — they are plain parameters — but any difference in
// cfg.Machine fails with ErrShapeChange, since the component graph is
// sized by the machine shape. Only the ledger is built fresh: it escapes
// into the previous run's Result, which must stay valid after Reset.
//
// The correctness contract is byte-identity: a Run after Reset produces
// bit-identical cycles, counters and CSV bytes to the same Run on a
// freshly constructed System. The differential goldens over the done set
// pin this.
func (s *System) Reset(cfg config.Config, trace *workload.Trace) error {
	if cfg.Machine != s.cfg.Machine {
		return fmt.Errorf("%w: %+v -> %+v", ErrShapeChange, s.cfg.Machine, cfg.Machine)
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if trace.NumThreads() != cfg.Machine.Processors {
		return fmt.Errorf("tcc: trace has %d threads but machine has %d processors",
			trace.NumThreads(), cfg.Machine.Processors)
	}
	if err := trace.Validate(s.geom); err != nil {
		return err
	}
	s.cfg = cfg
	s.eng.Reset()
	s.bus.Reset()
	s.vendor.Reset()
	policy := policyFor(cfg.Gating)
	for _, d := range s.dirs {
		d.Reset(cfg.Gating, policy)
	}
	s.counters = stats.Counters{} // &s.counters held by the directories stays valid
	s.ledger = stats.NewLedger(cfg.Machine.Processors)
	for i, p := range s.procs {
		p.reset(&trace.Threads[i])
	}
	s.done = 0
	s.endTime = 0
	s.tryGrantQueued = false
	s.traceName = trace.Name
	s.rec = nil
	s.cancel = nil
	s.candScratch = s.candScratch[:0]
	s.claimedList = s.claimedList[:0]
	return nil
}

// Engine exposes the simulation engine (for tests).
func (s *System) Engine() *sim.Engine { return s.eng }

// Processors exposes the processor models (for tests).
func (s *System) Processors() []*Processor { return s.procs }

// Directories exposes the directory models (for tests).
func (s *System) Directories() []*directory.Directory { return s.dirs }

// dirNode returns the interconnect node a directory sits on: directories
// tile round-robin across the processor nodes (directory j beside
// processor j mod P), the placement every topology shares. Bus-class
// interconnects ignore the node ids entirely.
func (s *System) dirNode(di int) int {
	return di % s.cfg.Machine.Processors
}

// Vendor exposes the token vendor (for tests).
func (s *System) Vendor() *tokens.Vendor { return s.vendor }

// SetRecorder attaches a protocol event recorder to the whole machine,
// processors' power-state transitions (trace.EvState) included. Call
// before Run.
func (s *System) SetRecorder(r *trace.Recorder) {
	s.rec = r
	for _, d := range s.dirs {
		d.SetRecorder(r)
	}
}

// threadDone is called by a processor when it retires its last
// transaction.
func (s *System) threadDone() {
	s.done++
	if s.done == len(s.procs) {
		s.endTime = s.eng.Now()
		s.eng.Stop()
	}
}

// scheduleTryGrant defers a grant evaluation to the end of the current
// cycle (coalescing repeated requests within one event cascade): however
// many commits complete or marks are withdrawn this cycle, one batched
// grant round runs, and it considers every candidate.
func (s *System) scheduleTryGrant() {
	if s.tryGrantQueued {
		return
	}
	s.tryGrantQueued = true
	s.eng.ScheduleWithPriority(s.eng.Now(), 1, s.tryGrantFn)
}

// tryGrant implements the Scalable-TCC commit serialization as one
// batched arbitration round: every commit-wait processor is a candidate,
// examined oldest-TID first, and a committer starts writing once it heads
// the TID queue in every directory its write-set touches, none of those
// directories is busy, and no candidate granted earlier in the round has
// claimed them. Oldest-first examination keeps the globally oldest
// committer making progress — the property that keeps commit
// deadlock-free.
func (s *System) tryGrant() {
	cands := s.candScratch[:0]
	for _, p := range s.procs {
		if p.state == stateCommitWait && len(p.commitDirs) > 0 {
			cands = append(cands, grantCand{p, p.tid})
		}
	}
	s.candScratch = cands
	slices.SortFunc(cands, func(a, b grantCand) int {
		if a.tid < b.tid {
			return -1
		}
		if a.tid > b.tid {
			return 1
		}
		return 0
	})
	granted := s.grantedDirs // directories claimed in this round
	claimed := s.claimedList[:0]
	for _, c := range cands {
		ok := true
		for _, di := range c.p.commitDirs {
			d := s.dirs[di]
			head, has := d.Head()
			if !has || head != c.p.id || d.Busy() || granted[di] {
				ok = false
				break
			}
		}
		// Read-set probe: an older committer pending in any directory
		// this transaction read from could still write the read-set, so
		// the grant waits until every such committer has drained
		// (Scalable TCC's validation ordering).
		if ok {
			for _, rd := range c.p.readDirs() {
				if s.dirs[rd].HasOlderMark(c.tid, c.p.id) {
					ok = false
					break
				}
			}
		}
		if ok {
			// Claim the directories before granting: grant() may abort
			// the candidate at validation and clear its commitDirs, so
			// the claims are tracked separately for the round reset.
			for _, di := range c.p.commitDirs {
				granted[di] = true
				claimed = append(claimed, di)
			}
			c.p.grant()
		}
	}
	for _, di := range claimed {
		granted[di] = false
	}
	s.claimedList = claimed
}

// policyFor maps the configured policy kind onto a contention manager.
// W0 parameterizes each policy so the ablation compares like for like.
func policyFor(g config.Gating) cm.Policy {
	switch g.Policy {
	case config.PolicyExponential:
		return cm.ExponentialBackoff{Base: g.W0, Max: g.W0 * 512}
	case config.PolicyLinear:
		return cm.LinearBackoff{Step: g.W0, Max: g.W0 * 512}
	case config.PolicyFixed:
		return fixedWindow{w: g.W0}
	default:
		return cm.GatingAware{W0: g.W0}
	}
}

// fixedWindow gates for a constant W0 regardless of history.
type fixedWindow struct{ w sim.Time }

func (f fixedWindow) Window(_, _ int) sim.Time { return f.w }
func (f fixedWindow) Name() string             { return fmt.Sprintf("fixed(%d)", f.w) }

// Result summarizes one run.
type Result struct {
	// Cycles is the parallel-section execution time (N1 or N2).
	Cycles sim.Time
	// Ledger is the closed per-processor residency ledger.
	Ledger *stats.Ledger
	// Counters aggregates system-wide protocol events.
	Counters stats.Counters
	// PerProc holds each processor's statistics.
	PerProc []ProcStats
	// CachePerProc holds each L1's counters.
	CachePerProc []cache.Stats
	// BusStats holds interconnect counters, aggregated over banks.
	BusStats bus.Stats
	// BankStats holds each interconnect bank's private counters (one
	// entry for the single bus), the per-bank breakdown behind the CSV's
	// bank_util/bank_wait_cycles/bank_rounds columns.
	BankStats []bus.Stats
	// DirStats holds each directory's counters.
	DirStats []directory.Stats
	// TraceName labels the workload.
	TraceName string
	// Gated records whether the gating protocol was enabled.
	Gated bool
}

// Run executes the simulation to completion and returns the result. It
// fails if the event queue drains before every thread finishes (a protocol
// livelock — should be impossible and is asserted against in tests) or if
// cfg.MaxCycles is exceeded.
func (s *System) Run() (*Result, error) {
	for _, p := range s.procs {
		p.start()
	}
	limit := s.cfg.MaxCycles
	if limit <= 0 {
		limit = sim.MaxTime
	}
	if _, err := s.eng.RunUntilChecked(limit, 0, s.cancel); err != nil {
		return nil, err
	}
	if s.done != len(s.procs) {
		if s.eng.Now() >= limit {
			return nil, fmt.Errorf("tcc: simulation exceeded MaxCycles=%d with %d/%d threads done",
				limit, s.done, len(s.procs))
		}
		return nil, fmt.Errorf("tcc: event queue drained with %d/%d threads done (protocol livelock)",
			s.done, len(s.procs))
	}
	s.ledger.Close(s.endTime)
	res := &Result{
		Cycles:       s.endTime,
		Ledger:       s.ledger,
		Counters:     s.counters,
		PerProc:      make([]ProcStats, len(s.procs)),
		CachePerProc: make([]cache.Stats, len(s.procs)),
		BusStats:     s.bus.Stats(),
		BankStats:    s.bus.BankStats(),
		TraceName:    s.traceName,
		Gated:        s.cfg.Gating.Enabled,
	}
	for i, p := range s.procs {
		res.PerProc[i] = p.Stats()
		res.CachePerProc[i] = p.CacheStats()
	}
	res.DirStats = make([]directory.Stats, len(s.dirs))
	for i, d := range s.dirs {
		res.DirStats[i] = d.Stats()
	}
	return res, nil
}

func sortInts(xs []int) { sort.Ints(xs) }
