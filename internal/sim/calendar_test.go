package sim

import (
	"container/heap"
	"testing"
)

// This file pins the calendar queue to the engine's dispatch contract from
// two directions: a differential test executing identical random workloads
// on the engine and on a reference container/heap implementation of the
// (time, priority, sequence) order, and allocation guards asserting the
// zero-steady-state-allocation property that motivated the calendar
// design.

// refEvent / refQueue / refEngine reimplement the pre-calendar event queue
// verbatim, kept as the executable specification of the dispatch order.
type refEvent struct {
	at       Time
	priority int
	seq      uint64
	fn       func()
	canceled bool
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	if q[i].priority != q[j].priority {
		return q[i].priority < q[j].priority
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

type refEngine struct {
	now Time
	seq uint64
	q   refQueue
}

func (e *refEngine) schedule(at Time, prio int, fn func()) func() {
	ev := &refEvent{at: at, priority: prio, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.q, ev)
	return func() { ev.canceled = true }
}

func (e *refEngine) run() {
	for len(e.q) > 0 {
		ev := heap.Pop(&e.q).(*refEvent)
		if ev.canceled {
			continue
		}
		e.now = ev.at
		ev.fn()
	}
}

// driver is the common face of the two engines under differential test.
type driver struct {
	schedule func(at Time, prio int, fn func()) func()
	now      func() Time
	run      func()
}

func engineDriver(e *Engine) driver {
	return driver{
		schedule: func(at Time, prio int, fn func()) func() {
			r := e.ScheduleWithPriority(at, prio, fn)
			return r.Cancel
		},
		now: e.Now,
		run: func() { e.Run() },
	}
}

func referenceDriver(e *refEngine) driver {
	return driver{
		schedule: e.schedule,
		now:      func() Time { return e.now },
		run:      e.run,
	}
}

// fire records one executed event for trace comparison.
type fire struct {
	at   Time
	prio int
	id   int
}

// runScript executes a deterministic pseudo-random workload on a driver:
// initial events across the horizon, cascades scheduled from inside
// dispatch (including same-cycle re-entry), and random cancellations of
// still-pending events. All decisions derive from the RNG in dispatch
// order, so two engines executing identically draw identically — and any
// ordering divergence shows up as diverging traces.
func runScript(d driver, seed uint64, horizon int64, prios, initial, budget int) []fire {
	rng := NewRNG(seed, uint64(horizon))
	var trace []fire
	var cancels []func()
	nextID := 0

	var schedule func(at Time, prio int)
	schedule = func(at Time, prio int) {
		id := nextID
		nextID++
		cancels = append(cancels, d.schedule(at, prio, func() {
			trace = append(trace, fire{d.now(), prio, id})
			for c := 0; c < 3 && budget > 0; c++ {
				switch rng.Intn(6) {
				case 0: // future cascade
					budget--
					schedule(d.now()+Time(rng.Intn(int(horizon))), rng.Intn(prios))
				case 1: // same-cycle re-entry
					budget--
					schedule(d.now(), rng.Intn(prios))
				case 2: // cancel a random earlier event (may already be done)
					cancels[rng.Intn(len(cancels))]()
				}
			}
		}))
	}
	for i := 0; i < initial; i++ {
		schedule(Time(rng.Intn(int(horizon))), rng.Intn(prios))
	}
	// Cancel a deterministic subset up front too.
	for i := 0; i < initial/8; i++ {
		cancels[rng.Intn(len(cancels))]()
	}
	d.run()
	return trace
}

// TestCalendarMatchesReferenceHeap is the differential test: the calendar
// engine must fire the exact same event sequence as the reference
// container/heap implementation across random (time, priority) workloads,
// spanning dense near-window traffic, priority ties, cancellations and
// far-future overflow times.
func TestCalendarMatchesReferenceHeap(t *testing.T) {
	cases := []struct {
		name    string
		horizon int64 // scheduling spread (exercises ring vs overflow)
		prios   int
	}{
		{"dense-ring", 64, 1},
		{"priorities", 200, 3},
		{"overflow-heavy", 100000, 2},
		{"mixed-horizon", 5000, 4},
		// Nearly every event shares its cycle with others of all three
		// priorities: ring FIFOs and the heap interleave within a cycle.
		{"dense-same-cycle", 4, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 5; seed++ {
				got := runScript(engineDriver(NewEngine()), seed, tc.horizon, tc.prios, 300, 1500)
				want := runScript(referenceDriver(&refEngine{}), seed, tc.horizon, tc.prios, 300, 1500)
				if len(got) != len(want) {
					t.Fatalf("seed %d: engine fired %d events, reference %d", seed, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d: divergence at event %d: engine %+v, reference %+v",
							seed, i, got[i], want[i])
					}
				}
				if len(got) == 0 {
					t.Fatalf("seed %d: empty trace proves nothing", seed)
				}
			}
		})
	}
}

// TestEventRefGoesStaleAfterFire pins the recycling safety property: a ref
// to a fired event must become inert, even after its underlying slot is
// reused by a later Schedule.
func TestEventRefGoesStaleAfterFire(t *testing.T) {
	e := NewEngine()
	r1 := e.Schedule(1, func() {})
	e.Run()
	if r1.Canceled() {
		t.Fatal("stale ref reports Canceled")
	}
	// The freed slot is reused by the next Schedule.
	ran := false
	e.Schedule(2, func() { ran = true })
	r1.Cancel() // must NOT cancel the new event occupying the slot
	e.Run()
	if !ran {
		t.Fatal("stale Cancel killed an unrelated recycled event")
	}
}

// TestZeroRefIsInert pins the zero EventRef as a safe "no event" value.
func TestZeroRefIsInert(t *testing.T) {
	var r EventRef
	r.Cancel()
	if r.Canceled() {
		t.Fatal("zero ref reports Canceled")
	}
}

// TestScheduleDispatchZeroAlloc is the allocation regression guard for the
// hot path: after warm-up, a schedule/fire cycle of pre-bound callbacks
// must not allocate at all — the free list, ring buckets and overflow heap
// all reuse their storage. (The warm-up loops long enough for the clock to
// wrap every ring bucket at least once, so every bucket slice has grown
// its steady-state capacity.)
func TestScheduleDispatchZeroAlloc(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	work := func() {
		for i := 0; i < 64; i++ {
			e.ScheduleAfter(Time(i%37), fn)
			e.ScheduleAfter(window+Time(i%101), fn) // overflow path too
		}
		e.Run()
	}
	for i := 0; i < 256; i++ {
		work()
	}
	if avg := testing.AllocsPerRun(50, work); avg != 0 {
		t.Fatalf("steady-state schedule/dispatch allocates %.1f times per cycle, want 0", avg)
	}
}

// TestCascadeZeroAlloc guards the self-scheduling pattern the processor
// model uses: each event schedules its successor through a pre-bound
// closure.
func TestCascadeZeroAlloc(t *testing.T) {
	e := NewEngine()
	n := 0
	var next func()
	next = func() {
		n++
		if n%1000 != 0 {
			e.ScheduleAfter(1, next)
		}
	}
	run := func() {
		e.ScheduleAfter(1, next)
		e.Run()
	}
	run()
	if avg := testing.AllocsPerRun(20, run); avg != 0 {
		t.Fatalf("cascade allocates %.1f times per chain, want 0", avg)
	}
}
