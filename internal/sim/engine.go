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
// ring bucket, a FIFO in schedule order (O(1) insert and dispatch). The
// rest — far-future events such as long gating timers, and every event of
// another priority — go to a small binary-heap overflow that dispatch
// merges with the ring by the same (time, priority, sequence) order. Fired
// events return to a free list, so Schedule and dispatch are
// allocation-free in steady state; the allocation guard in
// calendar_test.go pins that property.
//
// Because events are recycled, Schedule returns an EventRef — a
// generation-stamped handle — rather than a raw event pointer. A ref is
// invalidated the moment its event fires or is recycled, so a stale Cancel
// can never hit an unrelated event that happens to reuse the same slot.
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

// event is one scheduled callback. Events are engine-owned: they live in
// the calendar or the overflow heap while pending and return to the
// engine's free list when fired or discarded. External code holds
// EventRef handles, never *event.
type event struct {
	at       Time
	priority int // lower runs first among events at the same cycle
	seq      uint64
	gen      uint64 // bumped on recycle; EventRef validity stamp
	fn       func()
	canceled bool
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

// EventRef is a cancellation handle for a scheduled event. The zero value
// is a valid "no event" ref: Cancel is a no-op and Canceled reports false.
// A ref goes stale — permanently inert — once its event fires or is
// discarded, so holding a ref past the event's lifetime is always safe.
type EventRef struct {
	ev  *event
	gen uint64
}

// Cancel marks the event so the engine skips it when its time comes.
// Canceling an already-fired (or zero) ref is a no-op.
func (r EventRef) Cancel() {
	if r.ev != nil && r.ev.gen == r.gen {
		r.ev.canceled = true
	}
}

// Canceled reports whether the referenced event is still pending and has
// been canceled. It reports false for zero and stale refs.
func (r EventRef) Canceled() bool {
	return r.ev != nil && r.ev.gen == r.gen && r.ev.canceled
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

	// over is a binary min-heap (by the same (time, priority, seq)
	// order) of events scheduled at or beyond now+window, or with a
	// non-zero priority.
	over []*event

	free   []*event
	queued int
}

// bucket is one cycle's FIFO of priority-0 events. Events share one time
// and one priority, and sequence numbers grow with every Schedule, so
// append order is dispatch order: the live events are evs[head:].
type bucket struct {
	evs  []*event
	head int
}

func (b *bucket) empty() bool { return b.head == len(b.evs) }

// NewEngine returns an engine with the clock at cycle zero.
func NewEngine() *Engine {
	return &Engine{ring: make([]bucket, window)}
}

// Reset returns the engine to its initial state — clock at cycle zero,
// sequence counter rewound, no pending events — while keeping the
// allocated storage: the calendar ring buckets, the overflow heap's
// backing array, and the event free list all survive, so a run on a reset
// engine schedules without allocating from the first event. Events still
// pending (a stopped run leaves gating timers, bus deliveries and barrier
// spins queued) are discarded and recycled; their EventRefs go stale
// exactly as if they had fired. A reset engine is indistinguishable from
// a NewEngine to every observer of the public API, which is what lets a
// reused simulated machine reproduce a fresh one bit for bit.
func (e *Engine) Reset() {
	for i := range e.ring {
		b := &e.ring[i]
		for _, ev := range b.evs[b.head:] {
			e.recycle(ev)
		}
		clear(b.evs)
		b.evs, b.head = b.evs[:0], 0
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
	e.queued = 0
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events currently scheduled (including
// canceled events not yet discarded).
func (e *Engine) Pending() int { return e.queued }

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
	ev := e.alloc()
	ev.at, ev.priority, ev.seq, ev.fn, ev.canceled = at, priority, e.seq, fn, false
	e.seq++
	e.queued++
	if priority == 0 && at-e.now < window {
		b := &e.ring[at&windowMask]
		b.evs = append(b.evs, ev)
		if e.ringCnt == 0 || at < e.ringNext {
			e.ringNext = at
		}
		e.ringCnt++
	} else {
		e.overPush(ev)
	}
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
// list.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.canceled = false
	ev.gen++
	e.free = append(e.free, ev)
}

// nextTime returns the earliest pending event time (canceled events
// included — they are discarded during dispatch).
func (e *Engine) nextTime() (Time, bool) {
	if e.ringCnt > 0 {
		t := e.ringNext
		for e.ring[t&windowMask].empty() {
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
func (e *Engine) fireNext(limit Time) bool {
	for {
		if e.stopped {
			return false
		}
		t, ok := e.nextTime()
		if !ok || t > limit {
			return false
		}
		// The bucket's head is its (priority, seq)-minimal event; the heap
		// head competes with it under the full dispatch order.
		var ev *event
		b := &e.ring[t&windowMask]
		if !b.empty() && b.evs[b.head].at == t &&
			(len(e.over) == 0 || less(b.evs[b.head], e.over[0])) {
			ev = b.evs[b.head]
			b.evs[b.head] = nil
			if b.head++; b.empty() {
				b.evs, b.head = b.evs[:0], 0
			}
			e.ringCnt--
		} else {
			ev = e.overPop()
		}
		e.queued--
		if ev.canceled {
			e.recycle(ev)
			continue
		}
		if ev.at < e.now {
			panic(fmt.Sprintf("sim: time went backwards: %d < %d", ev.at, e.now))
		}
		fn := ev.fn
		e.recycle(ev)
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
