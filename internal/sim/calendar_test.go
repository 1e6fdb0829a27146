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

// script shapes runScript's random workload: times spread over horizon
// cycles and rounded up to a multiple of quantum (1 leaves them as
// drawn), and priorities drawn from [prioBase, prioBase+prios).
type script struct {
	horizon  int64
	quantum  int64
	prioBase int
	prios    int
}

// runScript executes a deterministic pseudo-random workload on a driver:
// initial events across the horizon, cascades scheduled from inside
// dispatch (including same-cycle re-entry), and random cancellations of
// still-pending events. All decisions derive from the RNG in dispatch
// order, so two engines executing identically draw identically — and any
// ordering divergence shows up as diverging traces.
func runScript(d driver, seed uint64, sc script, initial, budget int) []fire {
	rng := NewRNG(seed, uint64(sc.horizon))
	var trace []fire
	var cancels []func()
	nextID := 0
	quantum := max(sc.quantum, 1)
	future := func(from Time) Time {
		at := from + Time(rng.Intn(int(sc.horizon)))
		return (at + Time(quantum) - 1) / Time(quantum) * Time(quantum)
	}
	prio := func() int { return sc.prioBase + rng.Intn(sc.prios) }

	var schedule func(at Time, prio int)
	schedule = func(at Time, p int) {
		id := nextID
		nextID++
		cancels = append(cancels, d.schedule(at, p, func() {
			trace = append(trace, fire{d.now(), p, id})
			for c := 0; c < 3 && budget > 0; c++ {
				switch rng.Intn(6) {
				case 0: // future cascade
					budget--
					schedule(future(d.now()), prio())
				case 1: // same-cycle re-entry
					budget--
					schedule(d.now(), prio())
				case 2: // cancel a random earlier event (may already be done)
					cancels[rng.Intn(len(cancels))]()
				}
			}
		}))
	}
	for i := 0; i < initial; i++ {
		schedule(future(0), prio())
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
		name string
		sc   script
	}{
		{"dense-ring", script{horizon: 64, prios: 1}},
		{"priorities", script{horizon: 200, prios: 3}},
		{"overflow-heavy", script{horizon: 100000, prios: 2}},
		{"mixed-horizon", script{horizon: 5000, prios: 4}},
		// Nearly every event shares its cycle with others of all three
		// priorities: ring FIFOs and the heap interleave within a cycle.
		{"dense-same-cycle", script{horizon: 4, prios: 3}},
		// Priority-0 events land on a few cycles, some scheduled window
		// or more ahead (the heap) and some from within the window (the
		// ring): the heap head and a ring bucket tie on time and
		// priority, and only the sequence may break the tie.
		{"heap-ring-ties", script{horizon: 3 * int64(window), quantum: 128, prios: 1}},
		// Negative priorities beat the ring at a tie, positive ones lose.
		{"signed-priorities", script{horizon: 2 * int64(window), quantum: 64, prioBase: -1, prios: 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 5; seed++ {
				got := runScript(engineDriver(NewEngine()), seed, tc.sc, 300, 1500)
				want := runScript(referenceDriver(&refEngine{}), seed, tc.sc, 300, 1500)
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

// TestEventRefStaleAcrossReset pins Reset's side of the recycling
// contract, for a ring event and a heap event: a ref taken before Reset
// must neither cancel the event that reuses its storage afterwards nor
// report Canceled when that event is canceled through its own ref.
func TestEventRefStaleAcrossReset(t *testing.T) {
	for _, tc := range []struct {
		name string
		at   Time
		prio int
	}{
		{"ring", 5, 0},
		{"heap", 5, 1},
		{"far", 3 * window, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			old := e.ScheduleWithPriority(tc.at, tc.prio, func() { t.Fatal("discarded event ran") })
			e.Reset()
			ran := false
			reuse := e.ScheduleWithPriority(tc.at, tc.prio, func() { ran = true })
			if reuse.ev != old.ev || reuse.slot != old.slot {
				t.Fatalf("the event after Reset did not reuse the discarded one's storage")
			}
			old.Cancel()
			if reuse.Canceled() {
				t.Fatal("a pre-Reset ref canceled the event reusing its storage")
			}
			e.Run()
			if !ran {
				t.Fatal("the event reusing the storage did not run")
			}
			e.Reset()
			victim := e.ScheduleWithPriority(tc.at, tc.prio, func() {})
			victim.Cancel()
			if old.Canceled() || reuse.Canceled() {
				t.Fatal("a stale ref reports Canceled for the storage's new occupant")
			}
			if !victim.Canceled() {
				t.Fatal("a live ref does not report its own cancellation")
			}
		})
	}
}

// TestGenerationNeverWraps pins the retirement rule that keeps 32-bit
// generations sound: a slot or heap event whose generation is spent is
// never reused, so a ref to its last occupant can never match a later
// event, however many times storage is recycled.
func TestGenerationNeverWraps(t *testing.T) {
	e := NewEngine()
	r := e.Schedule(1, func() {})
	h := e.ScheduleWithPriority(1, 1, func() {})
	e.Run()
	// Fast-forward both to their last usable generation.
	e.slab[r.slot].gen = lastGen - 1
	h.ev.gen = lastGen - 1
	last := e.Schedule(2, func() {})
	lastHeap := e.ScheduleWithPriority(2, 1, func() {})
	if last.slot != r.slot || lastHeap.ev != h.ev {
		t.Fatal("the test did not reach the fast-forwarded storage")
	}
	e.Run()
	if e.slab[r.slot].gen != lastGen || h.ev.gen != lastGen {
		t.Fatalf("generations %d/%d after the last use, want retired at %d", e.slab[r.slot].gen, h.ev.gen, lastGen)
	}
	next := e.Schedule(3, func() {})
	nextHeap := e.ScheduleWithPriority(3, 1, func() {})
	if next.slot == r.slot || nextHeap.ev == h.ev {
		t.Fatal("retired storage was handed out again")
	}
	// Every ref the retired storage ever issued stays stale.
	for _, stale := range []EventRef{r, h, last, lastHeap, {e: e, slot: r.slot, gen: 0}} {
		stale.Cancel()
		if stale.Canceled() {
			t.Fatal("a ref to retired storage reports Canceled")
		}
	}
	if next.Canceled() || nextHeap.Canceled() {
		t.Fatal("a ref to retired storage canceled a live event")
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
