// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine is the substrate every other package in this repository runs
// on: processors, caches, buses and directories are all actors that
// schedule events on a shared virtual clock. Determinism is a hard
// requirement — two runs with the same seed and configuration must produce
// identical cycle counts — so the event queue breaks ties on (time,
// priority, sequence) and all randomness flows through the seeded PCG
// generator in this package.
//
// # Event queue
//
// The queue is a bucketed calendar queue sized for hardware-speed cascades:
// priority-0 events within the next `window` cycles land in a per-cycle
// ring bucket, a FIFO in schedule order (O(1) insert and dispatch). Ring
// events live by value in one engine-owned slab of 16-byte slots, and a
// bucket is a linked list of slab indices, so scheduling one allocates
// nothing and touches no heap object. The rest — far-future events such as long gating timers, and
// every event of another priority — go to a small binary-heap overflow
// that dispatch merges with the ring by the same (time, priority,
// sequence) order. Freed slab slots and heap events are reused, so
// Schedule and dispatch are allocation-free in steady state; the
// allocation guard in calendar_test.go pins that property.
//
// Because storage is recycled, Schedule returns an EventRef — a
// generation-stamped handle to a slab slot or a heap event — rather than
// a raw pointer. A ref is invalidated the moment its event fires or is
// discarded, so a stale Cancel can never hit an unrelated event that
// happens to reuse the same storage.
package sim

import (
	"fmt"
	"math"
)

// Time is a point on the simulation clock, measured in cycles.
type Time int64

// MaxTime is the largest representable simulation time.
const MaxTime = Time(math.MaxInt64)

// window is the calendar span covered by per-cycle ring buckets. Events
// scheduled at or beyond now+window go to the overflow heap instead. The
// span comfortably covers the model's dense latencies (L1 hits, bus
// occupancy, directory and memory access, commit bursts); only long
// contention-management windows overflow.
const (
	windowBits = 10
	window     = Time(1) << windowBits
	windowMask = window - 1
)

// event is one overflow-heap event. Heap events are engine-owned: they
// live in the heap while pending and return to the engine's free list
// when fired or discarded. External code holds EventRef handles, never
// *event.
type event struct {
	at       Time
	priority int // lower runs first among events at the same cycle
	seq      uint64
	fn       func() // nil once canceled
	gen      uint32 // bumped on recycle; EventRef validity stamp
}

// less is the engine's total dispatch order: (time, priority, sequence).
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.priority != b.priority {
		return a.priority < b.priority
	}
	return a.seq < b.seq
}

// slot is one ring event, stored by value in the engine's slab. It keeps
// no time, priority or sequence: its bucket gives the time, its priority
// is 0, and fireNext never needs its sequence. Index 0 of the slab is a
// sentinel that is never handed out, so 0 ends every list and a zero
// bucket is empty.
type slot struct {
	fn   func() // nil once canceled
	gen  uint32 // bumped on recycle; EventRef validity stamp
	next int32  // the next slot of the bucket's FIFO or of the free list
}

// lastGen is the generation at which a slot or heap event is retired
// instead of reused. Generations never wrap, so no stale ref can match
// a later occupant of its storage, however long the engine runs.
const lastGen = math.MaxUint32

// EventRef is a cancellation handle for a scheduled event: a heap event
// or a ring slot, each with the generation it had when scheduled. The
// zero value is a valid "no event" ref: Cancel is a no-op and Canceled
// reports false. A ref goes stale — permanently inert — once its event
// fires or is discarded (Reset discards every pending event), so holding
// a ref past the event's lifetime is always safe.
type EventRef struct {
	ev   *event  // a heap event, or nil
	e    *Engine // a ring event's engine, or nil
	slot int32   // a ring event's slab index
	gen  uint32
}

// fnp returns the referenced event's callback slot when the ref is
// still live, or nil when it is zero or stale.
func (r EventRef) fnp() *func() {
	if r.ev != nil {
		if r.ev.gen == r.gen {
			return &r.ev.fn
		}
	} else if r.e != nil {
		if s := &r.e.slab[r.slot]; s.gen == r.gen {
			return &s.fn
		}
	}
	return nil
}

// Cancel marks the event so the engine skips it when its time comes.
// Canceling an already-fired (or zero) ref is a no-op.
func (r EventRef) Cancel() {
	if fn := r.fnp(); fn != nil {
		*fn = nil
	}
}

// Canceled reports whether the referenced event is still pending and has
// been canceled. It reports false for zero and stale refs.
func (r EventRef) Canceled() bool {
	fn := r.fnp()
	return fn != nil && *fn == nil
}

// Engine is a discrete-event simulator. The zero value is not usable;
// construct with NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	fired   uint64
	stopped bool

	// ring holds near-future priority-0 events, one bucket per cycle of
	// the [now, now+window) span; bucket index is the cycle modulo window.
	// At any instant every event in one bucket shares the same absolute
	// time, because only times within the window are inserted.
	ring    []bucket
	ringCnt int
	// ringNext is a lower bound on the earliest event time in the ring,
	// valid while ringCnt > 0; the dispatch scan starts here.
	ringNext Time
	// slab stores the ring's events by value; freeSlot heads its LIFO
	// free list, linked through next (0 when empty).
	slab     []slot
	freeSlot int32

	// over is a binary min-heap (by the same (time, priority, seq)
	// order) of events scheduled at or beyond now+window, or with a
	// non-zero priority.
	over []*event

	free []*event
}

// bucket is one cycle's FIFO of priority-0 events: a list of slab
// indices from head to tail, linked through next. Its events share one
// time and one priority, and are appended in schedule order, so list
// order is dispatch order.
type bucket struct{ head, tail int32 }

// NewEngine returns an engine with the clock at cycle zero.
func NewEngine() *Engine {
	return &Engine{ring: make([]bucket, window), slab: make([]slot, 1, 64)}
}

// Reset returns the engine to its initial state — clock at cycle zero,
// sequence counter rewound, no pending events — while keeping the
// allocated storage: the calendar ring buckets, the slab, the overflow
// heap's backing array, and the event free list all survive, so a run on
// a reset engine schedules without allocating from the first event.
// Events still pending (a stopped run leaves gating timers, bus
// deliveries and barrier spins queued) are discarded and recycled; their
// EventRefs go stale exactly as if they had fired, and generations are
// never rewound, so no ref taken before a Reset matches an event
// scheduled after it. A reset engine is indistinguishable from a
// NewEngine to every observer of the public API, which is what lets a
// reused simulated machine reproduce a fresh one bit for bit.
func (e *Engine) Reset() {
	for i := range e.ring {
		b := &e.ring[i]
		for j := b.head; j != 0; {
			next := e.slab[j].next
			e.recycleSlot(j)
			j = next
		}
		*b = bucket{}
	}
	for i, ev := range e.over {
		e.recycle(ev)
		e.over[i] = nil
	}
	e.over = e.over[:0]
	e.now = 0
	e.seq = 0
	e.fired = 0
	e.stopped = false
	e.ringCnt = 0
	e.ringNext = 0
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events currently scheduled (including
// canceled events not yet discarded).
func (e *Engine) Pending() int { return e.ringCnt + len(e.over) }

// Schedule runs fn at absolute time at. Scheduling in the past panics:
// that is always a protocol-model bug, never a recoverable condition.
func (e *Engine) Schedule(at Time, fn func()) EventRef {
	return e.ScheduleWithPriority(at, 0, fn)
}

// ScheduleAfter runs fn delay cycles from now.
func (e *Engine) ScheduleAfter(delay Time, fn func()) EventRef {
	return e.ScheduleWithPriority(e.now+delay, 0, fn)
}

// ScheduleWithPriority runs fn at time at; among events scheduled for the
// same cycle, lower priority values run first. Non-zero priorities take
// the overflow heap, so they suit rare events such as end-of-cycle rounds.
func (e *Engine) ScheduleWithPriority(at Time, priority int, fn func()) EventRef {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", at, e.now))
	}
	if fn == nil {
		panic("sim: schedule nil function")
	}
	if priority == 0 && at-e.now < window {
		i := e.freeSlot
		if i != 0 {
			e.freeSlot = e.slab[i].next
		} else {
			i = int32(len(e.slab))
			e.slab = append(e.slab, slot{})
		}
		s := &e.slab[i]
		s.fn, s.next = fn, 0
		b := &e.ring[at&windowMask]
		if b.head == 0 {
			b.head = i
		} else {
			e.slab[b.tail].next = i
		}
		b.tail = i
		if e.ringCnt == 0 || at < e.ringNext {
			e.ringNext = at
		}
		e.ringCnt++
		return EventRef{e: e, slot: i, gen: s.gen}
	}
	ev := e.alloc()
	ev.at, ev.priority, ev.seq, ev.fn = at, priority, e.seq, fn
	e.seq++
	e.overPush(ev)
	return EventRef{ev: ev, gen: ev.gen}
}

func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{}
}

// recycle invalidates outstanding refs to ev and returns it to the free
// list, or retires it once its generation is spent.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	if ev.gen++; ev.gen != lastGen {
		e.free = append(e.free, ev)
	}
}

// recycleSlot invalidates outstanding refs to slab slot i and pushes it
// on the free list, or retires it once its generation is spent.
func (e *Engine) recycleSlot(i int32) {
	s := &e.slab[i]
	s.fn = nil
	if s.gen++; s.gen != lastGen {
		s.next = e.freeSlot
		e.freeSlot = i
	}
}

// nextTime returns the earliest pending event time (canceled events
// included — they are discarded during dispatch).
func (e *Engine) nextTime() (Time, bool) {
	if e.ringCnt > 0 {
		t := e.ringNext
		for e.ring[t&windowMask].head == 0 {
			t++
		}
		e.ringNext = t
		if len(e.over) > 0 && e.over[0].at < t {
			return e.over[0].at, true
		}
		return t, true
	}
	if len(e.over) > 0 {
		return e.over[0].at, true
	}
	return 0, false
}

// fireNext executes the single next live event if its time is ≤ limit,
// discarding canceled events it meets on the way. It reports whether an
// event fired.
//
// The ring bucket at t, when non-empty, holds events due at t (ring times
// lie in [now, now+window), where no two cycles share a bucket), and its
// head is its sequence-minimal event. The heap head is then due at t or
// later. At t it runs first exactly when its priority is at most 0: a
// negative priority wins outright, and a priority-0 event took the heap
// only by being due window or more cycles after it was scheduled, so it
// was scheduled, and numbered, before every ring event due at t.
func (e *Engine) fireNext(limit Time) bool {
	for {
		if e.stopped {
			return false
		}
		t, ok := e.nextTime()
		if !ok || t > limit {
			return false
		}
		var fn func()
		if b := &e.ring[t&windowMask]; b.head != 0 &&
			(len(e.over) == 0 || e.over[0].at != t || e.over[0].priority > 0) {
			i := b.head
			b.head = e.slab[i].next
			fn = e.slab[i].fn
			e.recycleSlot(i)
			e.ringCnt--
		} else {
			ev := e.overPop()
			if ev.at < e.now {
				panic(fmt.Sprintf("sim: time went backwards: %d < %d", ev.at, e.now))
			}
			fn = ev.fn
			e.recycle(ev)
		}
		if fn == nil { // canceled
			continue
		}
		e.now = t
		e.fired++
		fn()
		return true
	}
}

// Step executes the single next event. It returns false when the queue is
// empty or the engine has been stopped.
func (e *Engine) Step() bool {
	return e.fireNext(MaxTime)
}

// Run executes events until the queue drains or Stop is called. It returns
// the final simulation time.
func (e *Engine) Run() Time {
	for e.fireNext(MaxTime) {
	}
	return e.now
}

// RunUntilChecked is RunUntil with a cancellation hook: check is polled
// once every `every` executed events (every <= 0 selects a default of
// 4096) and a non-nil return stops execution immediately with that error.
// With a nil check it behaves exactly like RunUntil. The hook is polled on
// event-count boundaries, not wall-clock, so a run that was not canceled
// executes the identical event sequence as an unchecked one.
func (e *Engine) RunUntilChecked(limit Time, every int, check func() error) (Time, error) {
	if check == nil {
		return e.RunUntil(limit), nil
	}
	if every <= 0 {
		every = 4096
	}
	n := 0
	for e.fireNext(limit) {
		if n++; n >= every {
			n = 0
			if err := check(); err != nil {
				return e.now, err
			}
		}
	}
	if e.now > limit {
		panic("sim: RunUntilChecked overshot limit")
	}
	return e.now, nil
}

// RunUntil executes events with time ≤ limit. Events scheduled beyond the
// limit remain queued. It returns the final simulation time, which never
// exceeds limit.
func (e *Engine) RunUntil(limit Time) Time {
	for e.fireNext(limit) {
	}
	if e.now > limit {
		panic("sim: RunUntil overshot limit")
	}
	return e.now
}

// Stop halts the engine: Run and Step return immediately afterwards.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// overPush inserts an event into the overflow heap.
func (e *Engine) overPush(ev *event) {
	e.over = append(e.over, ev)
	i := len(e.over) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !less(e.over[i], e.over[p]) {
			break
		}
		e.over[i], e.over[p] = e.over[p], e.over[i]
		i = p
	}
}

// overPop removes and returns the overflow heap's minimum.
func (e *Engine) overPop() *event {
	h := e.over
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	e.over = h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		c := l
		if r < n && less(h[r], h[l]) {
			c = r
		}
		if !less(h[c], h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return top
}
