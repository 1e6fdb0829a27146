package bus

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

func TestSingleMessageLatency(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, 4)
	var delivered sim.Time = -1
	b.Send(0, 0, 0, func() { delivered = eng.Now() })
	eng.Run()
	if delivered != 4 {
		t.Fatalf("delivered at %d, want 4", delivered)
	}
}

func TestBackToBackMessagesSerialize(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, 4)
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
	b := New(eng, 4)
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
	b := New(eng, 10)
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
	b := New(eng, 5)
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
	b := New(eng, 4)
	b.Send(0, 0, 0, func() {})
	b.Send(0, 0, 0, func() {})
	if got := b.Queued(); got != 2 {
		t.Fatalf("queued %d before arbitration, want 2", got)
	}
	eng.Run()
	if got := b.Queued(); got != 0 {
		t.Fatalf("queued %d after drain, want 0", got)
	}
}

func TestSteadyStateSendZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, 2)
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
	defer func() {
		if recover() == nil {
			t.Error("New with occupancy 0 did not panic")
		}
	}()
	New(sim.NewEngine(), 0)
}

func TestInterleavedSendsKeepFIFO(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, 3)
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

// BenchmarkBusBatched measures arbitration throughput under heavy fan-in:
// many senders pile onto the queue each round, the shape a wide machine's
// commit invalidation storms produce. messages/round reports the batching
// factor actually achieved.
func BenchmarkBusBatched(b *testing.B) {
	for _, senders := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("senders%d", senders), func(b *testing.B) {
			b.ReportAllocs()
			eng := sim.NewEngine()
			bus := New(eng, 2)
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
