package bus

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// newBus builds the paper's single split-transaction bus.
func newBus(eng *sim.Engine, occupancy sim.Time) Interconnect {
	return NewInterconnect(eng, occupancy, 0, 1, "")
}

// queued counts the messages a link network holds awaiting arbitration or
// delivery, over all links. A multi-hop message in flight is queued on
// exactly one link.
func queued(ic Interconnect) int {
	k := 0
	for i := range ic.(*network).links {
		k += int(ic.(*network).links[i].n)
	}
	return k
}

func TestSingleMessageLatency(t *testing.T) {
	eng := sim.NewEngine()
	b := newBus(eng, 4)
	var delivered sim.Time = -1
	b.Send(0, 0, 0, func() { delivered = eng.Now() })
	eng.Run()
	if delivered != 4 {
		t.Fatalf("delivered at %d, want 4", delivered)
	}
}

func TestBackToBackMessagesSerialize(t *testing.T) {
	eng := sim.NewEngine()
	b := newBus(eng, 4)
	var times []sim.Time
	for i := 0; i < 3; i++ {
		b.Send(0, 0, 0, func() { times = append(times, eng.Now()) })
	}
	eng.Run()
	want := []sim.Time{4, 8, 12}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("deliveries %v, want %v", times, want)
		}
	}
}

func TestBusFreesUpOverTime(t *testing.T) {
	eng := sim.NewEngine()
	b := newBus(eng, 4)
	var second sim.Time
	b.Send(0, 0, 0, func() {})
	// Issue the second message long after the first finished: no queueing.
	eng.Schedule(100, func() {
		b.Send(0, 0, 0, func() { second = eng.Now() })
	})
	eng.Run()
	if second != 104 {
		t.Fatalf("second delivered at %d, want 104", second)
	}
	if b.Stats().WaitCycles != 0 {
		t.Fatalf("unexpected wait cycles %d", b.Stats().WaitCycles)
	}
}

func TestWaitCyclesAccumulateUnderContention(t *testing.T) {
	eng := sim.NewEngine()
	b := newBus(eng, 10)
	for i := 0; i < 4; i++ {
		b.Send(0, 0, 0, func() {})
	}
	eng.Run()
	st := b.Stats()
	if st.Messages != 4 {
		t.Fatalf("messages %d", st.Messages)
	}
	// Queueing delays: 0 + 10 + 20 + 30.
	if st.WaitCycles != 60 {
		t.Fatalf("wait cycles %d, want 60", st.WaitCycles)
	}
	if st.BusyCycles != 40 {
		t.Fatalf("busy cycles %d, want 40", st.BusyCycles)
	}
}

func TestGrantRoundsBatchQueuedSenders(t *testing.T) {
	eng := sim.NewEngine()
	b := newBus(eng, 5)
	delivered := 0
	// Eight messages issued in one cycle: one grant round must drain all
	// of them (batched arbitration), with consecutive slots.
	for i := 0; i < 8; i++ {
		b.Send(0, 0, 0, func() { delivered++ })
	}
	eng.Run()
	if delivered != 8 {
		t.Fatalf("delivered %d, want 8", delivered)
	}
	st := b.Stats()
	if st.Rounds != 1 {
		t.Fatalf("grant rounds %d, want 1 (arbitration not batched)", st.Rounds)
	}
	if eng.Now() != 8*5 {
		t.Fatalf("last delivery at %d, want 40", eng.Now())
	}
}

func TestQueuedCountsBothStages(t *testing.T) {
	eng := sim.NewEngine()
	b := newBus(eng, 4)
	b.Send(0, 0, 0, func() {})
	b.Send(0, 0, 0, func() {})
	if got := queued(b); got != 2 {
		t.Fatalf("queued %d before arbitration, want 2", got)
	}
	eng.Step() // the grant round grants both
	if l := &b.(*network).links[0]; l.n-l.granted != 0 || l.granted != 2 {
		t.Fatalf("after the grant round: %d awaiting arbitration, %d granted, want 0 and 2",
			l.n-l.granted, l.granted)
	}
	eng.Run()
	if got := queued(b); got != 0 {
		t.Fatalf("queued %d after drain, want 0", got)
	}
}

func TestSteadyStateSendZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	b := newBus(eng, 2)
	deliver := func() {}
	work := func() {
		for i := 0; i < 32; i++ {
			b.Send(0, 0, 0, deliver)
		}
		eng.Run()
	}
	for i := 0; i < 256; i++ {
		work() // warm queues, engine free list, and every ring bucket
	}
	if avg := testing.AllocsPerRun(50, work); avg != 0 {
		t.Fatalf("steady-state bus traffic allocates %.1f times per burst, want 0", avg)
	}
}

func TestZeroOccupancyPanics(t *testing.T) {
	for _, spec := range []string{"bus", "xbar", "ring"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with occupancy 0 did not panic", spec)
				}
			}()
			NewInterconnect(sim.NewEngine(), 0, 0, 4, spec)
		}()
	}
}

func TestInterleavedSendsKeepFIFO(t *testing.T) {
	eng := sim.NewEngine()
	b := newBus(eng, 3)
	var order []int
	// Sender A at t=0, sender B at t=1: A's message must deliver first.
	b.Send(0, 0, 0, func() { order = append(order, 0) })
	eng.Schedule(1, func() {
		b.Send(0, 0, 0, func() { order = append(order, 1) })
	})
	eng.Run()
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("order %v", order)
	}
}

// oneLinkShape is a row of the one-link differential: a shape built from
// one link, by bank count and topology spec.
type oneLinkShape struct {
	name     string
	banks    int
	topology string
}

// matchOneLink is the differential for the shapes built from one link.
// It runs randomized send schedules (local and vendor traffic, any
// interleave key) on each shape, on the single bus and on a 1-port
// crossbar. Each shape must deliver message for message at the cycles the
// bus does, with the bus's Stats, over one link. The bus in turn must
// match the crossbar on deliveries, Messages, BusyCycles and WaitCycles.
// The crossbar reserves each message's slot at send time and shares no
// code with the link's grant round, so it is an independent reference.
// Rounds differ by design (the crossbar counts one per message), so they
// are compared only against the bus.
func matchOneLink(t *testing.T, shapes ...oneLinkShape) {
	t.Helper()
	run := func(seed int64, banks int, topology string) (string, Stats, int) {
		eng := sim.NewEngine()
		ic := NewInterconnect(eng, 3, banks, 1, topology)
		rng := rand.New(rand.NewSource(seed))
		var out []string
		for i := 0; i < 200; i++ {
			i := i
			at := sim.Time(rng.Intn(300))
			src, dst := 0, 0
			switch rng.Intn(3) {
			case 1:
				src = VendorNode
			case 2:
				dst = VendorNode
			}
			key := rng.Uint64()
			eng.Schedule(at, func() {
				ic.Send(src, dst, key, func() {
					out = append(out, fmt.Sprintf("msg%d@%d", i, eng.Now()))
				})
			})
		}
		eng.Run()
		return fmt.Sprint(out), ic.Stats(), len(ic.BankStats())
	}
	for seed := int64(1); seed <= 20; seed++ {
		ref, xbar, _ := run(seed, 0, "xbar:1")
		want, bus, _ := run(seed, 0, "")
		if want != ref {
			t.Fatalf("seed %d: the bus diverged from the crossbar:\nxbar: %s\nbus:  %s", seed, ref, want)
		}
		if bus.Messages != xbar.Messages || bus.BusyCycles != xbar.BusyCycles || bus.WaitCycles != xbar.WaitCycles {
			t.Fatalf("seed %d: bus stats %+v, crossbar %+v", seed, bus, xbar)
		}
		for _, sh := range shapes {
			got, st, links := run(seed, sh.banks, sh.topology)
			if got != want {
				t.Fatalf("%s seed %d: deliveries diverged from the single bus:\nbus: %s\n%s: %s", sh.name, seed, want, sh.name, got)
			}
			if links != 1 {
				t.Fatalf("%s: %d links, want 1", sh.name, links)
			}
			if st != bus {
				t.Fatalf("%s seed %d: stats %+v, the single bus %+v", sh.name, seed, st, bus)
			}
		}
	}
}

// BenchmarkBusBatched measures arbitration throughput under heavy fan-in:
// many senders pile onto the queue each round, the shape a wide machine's
// commit invalidation storms produce. messages/round reports the batching
// factor actually achieved.
func BenchmarkBusBatched(b *testing.B) {
	for _, senders := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("senders%d", senders), func(b *testing.B) {
			b.ReportAllocs()
			eng := sim.NewEngine()
			bus := newBus(eng, 2)
			var deliver func()
			left := 0
			deliver = func() {
				// Each delivery fans a fresh message back in while the
				// burst lasts, sustaining a queue.
				if left > 0 {
					left--
					bus.Send(0, 0, 0, deliver)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				left = senders * 4
				for s := 0; s < senders; s++ {
					bus.Send(0, 0, 0, deliver)
				}
				eng.Run()
			}
			st := bus.Stats()
			b.ReportMetric(float64(st.Messages)/float64(st.Rounds), "msgs/round")
			b.ReportMetric(float64(st.Messages)/b.Elapsed().Seconds(), "msgs/s")
		})
	}
}
