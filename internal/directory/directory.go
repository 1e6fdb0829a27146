// Package directory models the memory directories of the Scalable-TCC
// baseline plus the additional per-processor gating table the paper adds
// (§III, Fig. 1): aborter processor id, aborter transaction id, abort
// counter, renew counter, gating timer and OFF bit — and the un-gating
// control circuit of Fig. 2(e).
//
// Each directory owns an interleaved slice of physical memory, tracks a
// full-bit-vector sharer set per line (two 64-bit words, so machines up to
// 128 processors fit), serializes committers by TID, and (with gating
// enabled) decides when an aborted processor's clock stops and restarts.
//
// Service is batch-oriented: read requests and commit line-writes reserve
// their directory-pipeline and memory-port slots on arrival (the same
// earliest-free-slot arithmetic as before), but completions fire through
// one chained service event per queue rather than one pre-scheduled event
// per request — the completion times are reservation-ordered, so a single
// in-flight event walking the FIFO suffices and the queues recycle their
// storage.
package directory

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/cm"
	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tokens"
	"repro/internal/trace"
)

// ProcessorPort is the directory's view of a processor. The tcc package's
// Processor implements it; tests substitute fakes.
type ProcessorPort interface {
	// ID returns the processor id.
	ID() int
	// DeliverInvalidation handles a coherence invalidation of line sent
	// by directory dir because aborter committed it. It reports whether
	// the invalidation aborted the processor's running transaction —
	// the condition under which the directory gates the victim.
	DeliverInvalidation(line mem.LineAddr, aborter, dir int) bool
	// DeliverStopClock freezes the processor's clocks. It reports
	// whether the processor actually froze (a committing processor
	// drops the signal; see tcc for the race this resolves).
	DeliverStopClock(dir int) bool
	// Gated reports whether the processor's clocks are currently
	// stopped. Directories use it to distinguish a stale in-flight
	// request from a genuinely running processor before clearing a
	// local OFF bit.
	Gated() bool
	// DeliverOn restarts the processor's clocks.
	DeliverOn(dir int)
	// TxInfo answers a TxInfoReq: the id (start PC) of the transaction
	// the processor is currently executing. ok=false is the null reply
	// of a gated or idle processor.
	TxInfo() (pc uint64, ok bool)
	// NoteLineCommitted informs the committer of the version its commit
	// assigned to a line, so its cached copy carries the right snapshot
	// version (bookkeeping, delivered with the commit acknowledgement).
	NoteLineCommitted(l mem.LineAddr, version uint64)
}

// lineState is the coherence state of one line: the last committer
// (owner), the full bit vector of sharers (bitset form keeps invalidation
// fan-out deterministic, ascending processor id), and the commit version.
// The version counts commits of the line; processors record the version
// they read and the commit-time validation phase compares against it —
// the mechanism that makes TCC's lazy conflict detection serializable.
//
// The epoch stamps which run of a reused directory the state belongs to:
// a lookup that finds an entry from an earlier epoch treats it as absent
// and reinitializes it in place, which lets Reset invalidate the whole
// line table in O(1) instead of clearing an index that can hold a run's
// entire footprint.
type lineState struct {
	owner   int
	sharers ProcSet
	version uint64
	lastTID tokens.TID
	epoch   uint64
}

// arenaChunk is the lineState allocation batch. Chunked allocation keeps
// every previously handed-out pointer stable while amortizing one heap
// allocation over many lines.
const arenaChunk = 1024

// retainedLinesMax bounds the line index carried across Reset. A stream
// of cells with disjoint footprints would otherwise grow it without
// bound; above the limit Reset starts a new index, whose dense indices
// reuse the arena from the start.
const retainedLinesMax = 1 << 20

// lineArena holds the lineStates in chunks, addressed by the line's dense
// index in the directory's line set.
type lineArena struct {
	chunks [][]lineState
}

// at returns the state slot for dense index i. Indices are handed out
// densely, so a miss is always the first index past the last chunk.
func (a *lineArena) at(i int) *lineState {
	c := i / arenaChunk
	if c == len(a.chunks) {
		a.chunks = append(a.chunks, make([]lineState, arenaChunk))
	}
	return &a.chunks[c][i%arenaChunk]
}

// gateEntry is one row of the paper's Fig. 1 table.
type gateEntry struct {
	off         bool
	aborterProc int
	aborterTx   uint64
	aborterTxOK bool
	abortCount  int
	renewCount  int
	timer       sim.EventRef
	// episode guards against stale timer and TxInfo-reply events after
	// the entry has been cleared or re-armed.
	episode uint64
	// timerFn is the pre-bound expiry callback; timerEp is the episode it
	// fires for. One stored episode is exact because at most one timer
	// event is ever live per entry: armTimer and disarm cancel the old
	// event before timerEp is overwritten, so the live event always reads
	// the episode it was scheduled with. (The control-circuit evaluation
	// that follows expiry has no such single-flight guarantee — a disarm
	// plus re-gate can leave a stale evaluation in flight alongside a new
	// one — so evaluations are pooled ops that carry their own episode.)
	timerFn func()
	timerEp uint64
	// onFn is the pre-bound On delivery (sendOn's bus crossing). It reads
	// no per-episode state, so one shared instance serves any number of
	// in-flight deliveries.
	onFn func()
}

// Stats counts one directory's activity.
type Stats struct {
	// Reads is the number of read-miss requests serviced.
	Reads uint64
	// Commits is the number of write-set commits performed here.
	Commits uint64
	// LinesCommitted is the total committed line count.
	LinesCommitted uint64
	// Gatings, Renewals and Ungates count this directory's gating
	// decisions (the global counters aggregate across directories).
	Gatings  uint64
	Renewals uint64
	Ungates  uint64
}

// readReq is one queued read-miss completion: the service slot was
// reserved at arrival, the chained service event fires at done.
type readReq struct {
	proc  int
	line  mem.LineAddr
	reply func(version uint64)
	done  sim.Time
}

// Directory is one memory directory.
type Directory struct {
	id       int
	eng      *sim.Engine
	bus      bus.Interconnect
	cfg      config.Machine
	gcfg     config.Gating
	policy   cm.Policy
	procs    []ProcessorPort
	counters *stats.Counters

	// lines indexes every line this directory has touched; a line's dense
	// index addresses its state in the arena. Entries survive Reset
	// (bounded by retainedLinesMax); the lineState epoch decides liveness.
	lines       mem.LineSet
	arena       lineArena
	epoch       uint64
	nextFreeDir sim.Time // directory pipeline availability
	nextFreeMem sim.Time // local memory port availability (single R/W port)

	// reads is the memory-port completion queue: reservation times are
	// nondecreasing, so one chained event (readFn) walks the FIFO. The
	// event is in flight exactly when the queue is non-empty.
	reads  readQueue
	readFn func()

	// One commit writes here at a time (writer guard), so the per-line
	// commit walk is a single chained event over this state.
	commitProc  int
	commitTID   tokens.TID
	commitLines []mem.LineAddr
	commitIdx   int
	commitStart sim.Time
	commitDone  func()
	commitFn    func()

	// marked holds commit-request timestamps indexed by processor id;
	// TIDNone means no request (real TIDs start at 1). Flat storage
	// replaces a per-run map: the scans in Head and HasOlderMark walk
	// Processors entries either way, and clearing is a memset.
	marked []tokens.TID
	// announced holds the "Marked" bits of Fig. 2(e), indexed by
	// processor id: Scalable TCC communicates store addresses to home
	// directories eagerly during execution, so a processor is "present"
	// in a directory from its first speculative store homed here until
	// the transaction commits or aborts — not just while it commits. The
	// renewal check of the un-gate circuit tests this set.
	announced []bool
	writer    int // processor currently committing here, or -1

	gate []gateEntry

	// onCommitDone, if set, runs after every completed commit; the
	// system uses it to re-evaluate commit grants.
	onCommitDone func()

	// rec, when non-nil, receives structured protocol events.
	rec *trace.Recorder

	// replyFree pools the read-reply bus crossings, so the miss hot
	// path sends data back without allocating a closure per read (the
	// requester side pools its halves of the round trip the same way —
	// see tcc's missOp). invFree, evalFree and txFree pool the other
	// per-event protocol crossings — invalidation deliveries, gating
	// control-circuit evaluations and TxInfo round trips — which in
	// high-conflict workloads outnumber everything else. All four pools
	// survive Reset.
	replyFree []*replyOp
	invFree   []*invOp
	evalFree  []*evalOp
	txFree    []*txInfoOp

	stats Stats
}

// replyOp is one pooled read-reply delivery: the reply callback and the
// line version it carries across the bus.
type replyOp struct {
	d     *Directory
	reply func(version uint64)
	v     uint64
	fn    func()
}

func (d *Directory) getReply() *replyOp {
	if n := len(d.replyFree); n > 0 {
		r := d.replyFree[n-1]
		d.replyFree = d.replyFree[:n-1]
		return r
	}
	r := &replyOp{d: d}
	r.fn = func() { r.d.replyDelivered(r) }
	return r
}

// replyDelivered lands a pooled reply at its requester. The op returns
// to the pool first: the reply may trigger the processor's next miss on
// this directory, which is then free to reuse it.
func (d *Directory) replyDelivered(r *replyOp) {
	reply, v := r.reply, r.v
	r.reply = nil
	d.replyFree = append(d.replyFree, r)
	reply(v)
}

// invOp is one pooled invalidation delivery: a committed line crossing
// the bus to kill a sharer's copy (and possibly its transaction).
type invOp struct {
	d         *Directory
	victim    int
	committer int
	line      mem.LineAddr
	fn        func()
}

func (d *Directory) getInv() *invOp {
	if n := len(d.invFree); n > 0 {
		op := d.invFree[n-1]
		d.invFree = d.invFree[:n-1]
		return op
	}
	op := &invOp{d: d}
	op.fn = func() { op.d.invDelivered(op) }
	return op
}

// invDelivered lands a pooled invalidation at its victim. The op returns
// to the pool first: the abort it may trigger can commit another line of
// the same walk, which is then free to reuse it.
func (d *Directory) invDelivered(op *invOp) {
	v, committer, l := op.victim, op.committer, op.line
	d.invFree = append(d.invFree, op)
	d.rec.Record(trace.Event{At: d.eng.Now(), Kind: trace.EvInvalidate,
		Proc: v, Other: committer, Dir: d.id, Line: l})
	aborted := d.procs[v].DeliverInvalidation(l, committer, d.id)
	if aborted {
		d.counters.Aborts++
		d.rec.Record(trace.Event{At: d.eng.Now(), Kind: trace.EvAbort,
			Proc: v, Other: committer, Dir: d.id, Line: l})
		if d.gcfg.Enabled {
			d.gateVictim(v, committer)
		}
	}
}

// evalOp is one pooled control-circuit evaluation: the Fig. 2(e) decision
// delayed by ControlCircuitCycles after a timer expiry. Evaluations carry
// their own episode because they cannot be cancelled: a disarm (via
// noteProcessorAlive) followed by a fresh gating episode can leave a
// stale evaluation in flight next to the new episode's own, and only the
// episode captured at scheduling time tells them apart.
type evalOp struct {
	d      *Directory
	victim int
	ep     uint64
	fn     func()
}

func (d *Directory) getEval() *evalOp {
	if n := len(d.evalFree); n > 0 {
		op := d.evalFree[n-1]
		d.evalFree = d.evalFree[:n-1]
		return op
	}
	op := &evalOp{d: d}
	op.fn = func() { op.d.evalFired(op) }
	return op
}

func (d *Directory) evalFired(op *evalOp) {
	victim, ep := op.victim, op.ep
	d.evalFree = append(d.evalFree, op)
	g := &d.gate[victim]
	if g.episode != ep || !g.off {
		return
	}
	d.evaluateUngate(victim, g, ep)
}

// txInfoOp is one pooled TxInfo round trip of the renewal check: the
// request crossing the bus to the aborter, and the reply carrying its
// current transaction id back.
type txInfoOp struct {
	d       *Directory
	victim  int
	aborter int
	ep      uint64
	pc      uint64
	ok      bool
	reqFn   func()
	repFn   func()
}

func (d *Directory) getTxInfo() *txInfoOp {
	if n := len(d.txFree); n > 0 {
		op := d.txFree[n-1]
		d.txFree = d.txFree[:n-1]
		return op
	}
	op := &txInfoOp{d: d}
	op.reqFn = func() {
		op.pc, op.ok = op.d.procs[op.aborter].TxInfo()
		op.d.bus.Send(op.aborter, op.d.node(), uint64(op.d.id), op.repFn)
	}
	op.repFn = func() { op.d.txInfoDelivered(op) }
	return op
}

func (d *Directory) txInfoDelivered(op *txInfoOp) {
	victim, ep, pc, ok := op.victim, op.ep, op.pc, op.ok
	d.txFree = append(d.txFree, op)
	g := &d.gate[victim]
	if g.episode != ep || !g.off {
		return
	}
	if !ok || !g.aborterTxOK || pc != g.aborterTx {
		d.sendOn(victim, g)
		return
	}
	// Renewal: the enemy transaction is still committing the same
	// transaction that killed us. Extend the gate.
	if g.renewCount < d.satMax(d.gcfg.RenewCounterBits) {
		g.renewCount++
	}
	d.counters.Renewals++
	d.stats.Renewals++
	d.rec.Record(trace.Event{At: d.eng.Now(), Kind: trace.EvRenew,
		Proc: victim, Other: g.aborterProc, Dir: d.id})
	d.armTimer(victim, g, ep)
}

// New builds directory id. Attach must be called before traffic arrives.
func New(id int, eng *sim.Engine, b bus.Interconnect, cfg config.Machine, gcfg config.Gating, policy cm.Policy, counters *stats.Counters) *Directory {
	if cfg.Processors > MaxProcs {
		panic(fmt.Sprintf("directory: %d processors exceed the %d-bit sharer vector", cfg.Processors, MaxProcs))
	}
	d := &Directory{
		id:        id,
		eng:       eng,
		bus:       b,
		cfg:       cfg,
		gcfg:      gcfg,
		policy:    policy,
		counters:  counters,
		epoch:     1, // zero-valued arena entries must never look current
		marked:    make([]tokens.TID, cfg.Processors),
		announced: make([]bool, cfg.Processors),
		writer:    -1,
		gate:      make([]gateEntry, cfg.Processors),
	}
	d.readFn = d.serviceRead
	d.commitFn = d.commitStep
	return d
}

// Attach wires the processor ports (indexed by processor id).
func (d *Directory) Attach(procs []ProcessorPort, onCommitDone func()) {
	d.procs = procs
	d.onCommitDone = onCommitDone
}

// node returns the directory's interconnect node: directories tile
// round-robin across the processor nodes (directory j beside processor
// j mod P), the placement every topology shares. Bus-class interconnects
// ignore the node ids entirely.
func (d *Directory) node() int { return d.id % d.cfg.Processors }

// SetRecorder attaches an event recorder (nil detaches).
func (d *Directory) SetRecorder(r *trace.Recorder) { d.rec = r }

// Reset returns the directory to its initial state for a new run on the
// same machine shape, taking the new run's gating knobs and contention
// policy (the only construction inputs a variant sweep changes). The line
// table survives as stale-epoch arena entries — reinitialized lazily on
// first touch, its index rebuilt only above retainedLinesMax — and the
// FIFO ring, gate table and pooled-op free lists keep their storage. The caller
// must have reset the engine first: pending reads, commit steps and
// gating timers are assumed discarded. A reset directory is observably
// identical to one built fresh by New.
func (d *Directory) Reset(gcfg config.Gating, policy cm.Policy) {
	d.gcfg = gcfg
	d.policy = policy
	d.epoch++
	if d.lines.Len() > retainedLinesMax {
		d.lines = mem.LineSet{}
	}
	d.nextFreeDir = 0
	d.nextFreeMem = 0
	d.reads.Clear()
	d.commitProc = 0
	d.commitTID = tokens.TIDNone
	d.commitLines = nil
	d.commitIdx = 0
	d.commitStart = 0
	d.commitDone = nil
	clear(d.marked) // TID zero value is TIDNone
	clear(d.announced)
	d.writer = -1
	for i := range d.gate {
		// Zero the protocol state (zero EventRefs are inert; episodes
		// restart at 0 as in New) but keep the pre-bound callbacks: they
		// capture only this entry's index and pointer, both stable.
		g := &d.gate[i]
		*g = gateEntry{timerFn: g.timerFn, onFn: g.onFn}
	}
	d.rec = nil
	d.stats = Stats{}
}

// Stats returns a copy of this directory's activity counters.
func (d *Directory) Stats() Stats { return d.stats }

// ID returns the directory id.
func (d *Directory) ID() int { return d.id }

func maxTime(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}

// line returns the live state of l, materializing it — from the arena,
// reusing a stale-epoch entry in place when one exists — on first touch
// this run.
func (d *Directory) line(l mem.LineAddr) *lineState {
	i, _ := d.lines.Add(l)
	ls := d.arena.at(i)
	if ls.epoch != d.epoch {
		*ls = lineState{owner: -1, epoch: d.epoch}
	}
	return ls
}

// lookup returns the live state of l, or nil if the line has not been
// touched this run (entries from earlier epochs are treated as absent).
func (d *Directory) lookup(l mem.LineAddr) *lineState {
	if i, ok := d.lines.Find(l); ok {
		if ls := d.arena.at(i); ls.epoch == d.epoch {
			return ls
		}
	}
	return nil
}

// Sharers returns the sharer set of a line (for tests and stats).
func (d *Directory) Sharers(l mem.LineAddr) ProcSet {
	if ls := d.lookup(l); ls != nil {
		return ls.sharers
	}
	return ProcSet{}
}

// Owner returns the owning processor of a line, or -1.
func (d *Directory) Owner(l mem.LineAddr) int {
	if ls := d.lookup(l); ls != nil {
		return ls.owner
	}
	return -1
}

// Version returns the commit version of a line (0 = never committed).
func (d *Directory) Version(l mem.LineAddr) uint64 {
	if ls := d.lookup(l); ls != nil {
		return ls.version
	}
	return 0
}

// LastCommitTID returns the TID of the line's most recent committer.
func (d *Directory) LastCommitTID(l mem.LineAddr) tokens.TID {
	if ls := d.lookup(l); ls != nil {
		return ls.lastTID
	}
	return tokens.TIDNone
}

// HasOlderMark reports whether any processor other than self holds a
// commit request here with a TID below tid. The commit grant probes every
// directory of a transaction's read-set with this predicate — Scalable
// TCC's validation rule that an older committer which might write the
// read-set must drain first.
func (d *Directory) HasOlderMark(tid tokens.TID, self int) bool {
	for p, t := range d.marked {
		if t != tokens.TIDNone && p != self && t < tid {
			return true
		}
	}
	return false
}

// HandleRead services a read-miss request that has arrived at the
// directory (bus transit already paid by the sender). The reply callback
// runs at the requesting processor after the data has crossed back over
// the bus, carrying the commit version of the line the reply data
// reflects. Directory pipeline and the single memory port both serialize:
// the request reserves its slots on arrival and joins the chained
// completion queue.
func (d *Directory) HandleRead(proc int, l mem.LineAddr, reply func(version uint64)) {
	d.stats.Reads++
	d.noteProcessorAlive(proc)
	start := maxTime(d.eng.Now(), d.nextFreeDir)
	dirDone := start + d.cfg.DirectoryCycles
	d.nextFreeDir = dirDone
	memStart := maxTime(dirDone, d.nextFreeMem)
	memDone := memStart + d.cfg.MemoryCycles
	d.nextFreeMem = memDone
	d.reads.Push(readReq{proc: proc, line: l, reply: reply, done: memDone})
	if d.reads.Len() == 1 {
		d.eng.Schedule(memDone, d.readFn)
	}
}

// serviceRead completes the head read (its reservation expires now) and
// re-arms the chain for the next one.
func (d *Directory) serviceRead() {
	r := d.reads.Pop()
	if d.reads.Len() > 0 {
		d.eng.Schedule(d.reads.Front().done, d.readFn)
	}
	ls := d.line(r.line)
	ls.sharers.Add(r.proc)
	// The reply carries the line's data, so its interleave key is the line
	// address and it rides the line's bank — the same FIFO later
	// invalidations of the line use, which preserves per-line
	// reply/invalidation ordering on every interconnect shape (on the
	// point-to-point fabrics the same guarantee comes from the
	// deterministic route: same endpoints, same links, FIFO per link).
	op := d.getReply()
	op.reply, op.v = r.reply, ls.version
	d.bus.Send(d.node(), r.proc, uint64(r.line), op.fn)
}

// noteProcessorAlive implements the paper's local-knowledge reconciliation:
// "if any load/store request comes from a processor which is marked as
// off, directory assumes that it has been turned on by some other
// directory. Then it resets the OFF bit as well in its local table."
// A request from a processor that is in fact frozen is stale traffic that
// was in flight when the clock stopped; clearing the OFF bit for it would
// orphan the gating timer and freeze the victim forever, so those are
// ignored.
func (d *Directory) noteProcessorAlive(proc int) {
	if !d.gcfg.Enabled {
		return
	}
	g := &d.gate[proc]
	if g.off && !d.procs[proc].Gated() {
		d.disarm(g)
	}
}

// disarm clears the OFF bit and cancels the timer without sending On.
func (d *Directory) disarm(g *gateEntry) {
	g.off = false
	g.episode++
	g.timer.Cancel()
	g.timer = sim.EventRef{}
}

// AnnounceIntent records an eager store-address announcement: proc has
// speculative writes homed in this directory. This sets the Fig. 2(e)
// "Marked" bit for the duration of proc's transaction.
func (d *Directory) AnnounceIntent(proc int) {
	d.noteProcessorAlive(proc)
	d.announced[proc] = true
}

// WithdrawIntent clears the announcement (the transaction committed or
// aborted).
func (d *Directory) WithdrawIntent(proc int) {
	d.announced[proc] = false
}

// Announced reports whether proc has announced speculative writes here.
func (d *Directory) Announced(proc int) bool { return d.announced[proc] }

// Mark records processor proc's commit request with timestamp tid: the
// processor has reached its commit instruction and entered the TID queue.
func (d *Directory) Mark(proc int, tid tokens.TID) {
	d.noteProcessorAlive(proc)
	d.marked[proc] = tid
}

// Unmark withdraws the commit request (the transaction aborted).
func (d *Directory) Unmark(proc int) {
	d.marked[proc] = tokens.TIDNone
}

// Marked reports whether proc currently has a commit request here.
func (d *Directory) Marked(proc int) bool {
	return d.marked[proc] != tokens.TIDNone
}

// Head returns the marked processor with the lowest TID, if any. The
// oldest committer goes first — the Scalable-TCC serialization rule.
func (d *Directory) Head() (proc int, ok bool) {
	best := tokens.TID(0)
	proc = -1
	for p, t := range d.marked {
		if t != tokens.TIDNone && (proc == -1 || t < best) {
			proc, best = p, t
		}
	}
	return proc, proc != -1
}

// Busy reports whether a commit is in progress here.
func (d *Directory) Busy() bool { return d.writer != -1 }

// Writer returns the committing processor, or -1.
func (d *Directory) Writer() int { return d.writer }

// BeginCommit starts writing proc's speculative lines that live in this
// directory. The directory is occupied for CommitLineCycles per line; each
// line's commit sends invalidations to all other sharers; done runs (in
// directory context, no bus transit) when the last line has committed.
// The whole write-set walk is one chained event stepping line to line.
// The caller must have established that proc is the head committer and
// the directory is free; the lines slice must stay untouched until done
// runs.
func (d *Directory) BeginCommit(proc int, lines []mem.LineAddr, done func()) {
	if d.writer != -1 {
		panic(fmt.Sprintf("directory %d: BeginCommit(%d) while %d is committing", d.id, proc, d.writer))
	}
	if d.marked[proc] == tokens.TIDNone {
		panic(fmt.Sprintf("directory %d: BeginCommit(%d) without mark", d.id, proc))
	}
	d.writer = proc
	d.stats.Commits++
	d.stats.LinesCommitted += uint64(len(lines))
	start := maxTime(d.eng.Now(), d.nextFreeDir)
	d.commitProc = proc
	d.commitTID = d.marked[proc]
	d.commitLines = lines
	d.commitIdx = 0
	d.commitStart = start
	d.commitDone = done
	var end sim.Time
	if len(lines) == 0 {
		end = start + d.cfg.DirectoryCycles // validation-only touch
	} else {
		end = start + sim.Time(len(lines))*d.cfg.CommitLineCycles
	}
	d.nextFreeDir = end
	at := end
	if len(lines) > 0 {
		at = start + d.cfg.CommitLineCycles
	}
	d.eng.Schedule(at, d.commitFn)
}

// commitStep is the chained commit walk: each firing publishes one line
// at its reserved slot; the final firing (same cycle as the last line)
// also completes the commit.
func (d *Directory) commitStep() {
	i := d.commitIdx
	if i < len(d.commitLines) {
		d.commitIdx++
		d.commitLine(d.commitProc, d.commitTID, d.commitLines[i])
		if d.commitIdx < len(d.commitLines) {
			d.eng.Schedule(d.commitStart+sim.Time(d.commitIdx+1)*d.cfg.CommitLineCycles, d.commitFn)
			return
		}
	}
	proc, done := d.commitProc, d.commitDone
	d.writer = -1
	d.commitLines = nil
	d.commitDone = nil
	d.marked[proc] = tokens.TIDNone
	done()
	if d.onCommitDone != nil {
		d.onCommitDone()
	}
}

// commitLine publishes one line: the version advances, ownership moves to
// the committer and all other sharers receive invalidations. A sharer
// that aborts triggers the gating protocol.
func (d *Directory) commitLine(committer int, tid tokens.TID, l mem.LineAddr) {
	ls := d.line(l)
	victims := ls.sharers.Without(committer)
	ls.owner = committer
	ls.sharers = Only(committer)
	ls.version++
	ls.lastTID = tid
	d.procs[committer].NoteLineCommitted(l, ls.version)
	victims.ForEach(func(v int) {
		d.counters.Invalidations++
		op := d.getInv()
		op.victim, op.committer, op.line = v, committer, l
		d.bus.Send(d.node(), v, uint64(l), op.fn)
	})
}

// OnProcessorCommitted resets the abort bookkeeping for proc: "Abort count
// field is reset to 0 whenever a thread commits." The system calls this on
// every directory when a transaction commits, treating the counter as a
// property of the (now completed) transaction.
func (d *Directory) OnProcessorCommitted(proc int) {
	if !d.gcfg.Enabled {
		return
	}
	g := &d.gate[proc]
	g.abortCount = 0
	g.renewCount = 0
}

// Off reports this directory's local view of proc's clock state.
func (d *Directory) Off(proc int) bool { return d.gate[proc].off }

// AbortCount returns the local abort counter for proc.
func (d *Directory) AbortCount(proc int) int { return d.gate[proc].abortCount }

// RenewCount returns the local renew counter for proc.
func (d *Directory) RenewCount(proc int) int { return d.gate[proc].renewCount }

func (d *Directory) satMax(bits int) int { return 1<<uint(bits) - 1 }

// gateVictim runs the abort-side of the protocol (§V, Fig. 2(c)–(d)):
// log aborter, bump the abort counter, reset the renew counter, arm the
// timer with the contention-management window, send StopClock to the
// victim and TxInfoReq to the aborter.
func (d *Directory) gateVictim(victim, aborter int) {
	g := &d.gate[victim]
	g.episode++
	ep := g.episode
	g.off = true
	g.aborterProc = aborter
	g.aborterTx = 0
	g.aborterTxOK = false
	if g.abortCount < d.satMax(d.gcfg.AbortCounterBits) {
		g.abortCount++
	}
	g.renewCount = 0
	d.armTimer(victim, g, ep)

	// StopClock to the victim. The stop-clock command rides with the
	// invalidation acknowledgement (this call runs in the delivery
	// context of the invalidation that caused the abort), so the victim
	// cannot issue new traffic between the abort and the freeze.
	if d.procs[victim].DeliverStopClock(d.id) {
		d.counters.Gatings++
		d.stats.Gatings++
		d.rec.Record(trace.Event{At: d.eng.Now(), Kind: trace.EvGate,
			Proc: victim, Other: aborter, Dir: d.id})
	}

	// TxInfoReq to the aborter, reply stored in the table (Fig. 2(d)).
	// The aborter is mid-commit right now, so the query is answered from
	// its architectural state; the answer is recorded immediately — the
	// paper's round trip completes well before the first timer expiry,
	// and modeling it with bus latency would let tiny first windows race
	// past the reply and ungate on an unknown aborter transaction.
	d.counters.TxInfoRequests++
	g.aborterTx, g.aborterTxOK = d.procs[aborter].TxInfo()
}

// armTimer loads the gating timer from the contention-management policy
// using the current abort and renew counts.
func (d *Directory) armTimer(victim int, g *gateEntry, ep uint64) {
	g.timer.Cancel()
	wt := d.policy.Window(g.abortCount, g.renewCount)
	if wt < 1 {
		wt = 1
	}
	if g.timerFn == nil {
		v := victim
		g.timerFn = func() { d.timerExpired(v, g.timerEp) }
	}
	g.timerEp = ep
	g.timer = d.eng.ScheduleAfter(wt, g.timerFn)
}

// timerExpired implements the Fig. 2(e) control circuit. The high fan-in
// OR over Marked processor ids costs ControlCircuitCycles before the
// decision is known, "extending the clock gating period by a small amount
// of time".
func (d *Directory) timerExpired(victim int, ep uint64) {
	g := &d.gate[victim]
	if g.episode != ep || !g.off {
		return
	}
	op := d.getEval()
	op.victim, op.ep = victim, ep
	d.eng.ScheduleAfter(d.gcfg.ControlCircuitCycles, op.fn)
}

// evaluateUngate decides between On and renewal:
//
//	(a) aborter no longer marked in this directory        → On
//	(b) aborter marked but TxInfoReq returns null          → On
//	(c) aborter marked, same transaction as the abort      → renew
//	(d) aborter marked, different transaction              → On
func (d *Directory) evaluateUngate(victim int, g *gateEntry, ep uint64) {
	if d.gcfg.DisableRenewal {
		d.sendOn(victim, g)
		return
	}
	// "The aborter thread is still present in that directory": either it
	// has announced speculative writes homed here (eager store-address
	// communication) or it sits in the commit queue.
	inQueue := d.marked[g.aborterProc] != tokens.TIDNone
	if !inQueue && !d.announced[g.aborterProc] {
		d.sendOn(victim, g)
		return
	}
	d.counters.TxInfoRequests++
	op := d.getTxInfo()
	op.victim, op.aborter, op.ep = victim, g.aborterProc, ep
	// Gating control carries no line address: it interleaves by the
	// issuing directory's id.
	d.bus.Send(d.node(), op.aborter, uint64(d.id), op.reqFn)
}

// sendOn delivers the On command and clears the local OFF state.
func (d *Directory) sendOn(victim int, g *gateEntry) {
	d.disarm(g)
	d.counters.Ungates++
	d.stats.Ungates++
	d.rec.Record(trace.Event{At: d.eng.Now(), Kind: trace.EvUngate,
		Proc: victim, Other: g.aborterProc, Dir: d.id})
	if g.onFn == nil {
		v := victim
		g.onFn = func() { d.procs[v].DeliverOn(d.id) }
	}
	d.bus.Send(d.node(), victim, uint64(d.id), g.onFn)
}

// ForceUngateAll is a test/shutdown hook: ungate every processor this
// directory holds off, regardless of the control-circuit conditions.
func (d *Directory) ForceUngateAll() {
	for p := range d.gate {
		g := &d.gate[p]
		if g.off {
			d.sendOn(p, g)
		}
	}
}
