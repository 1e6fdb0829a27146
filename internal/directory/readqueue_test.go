package directory

import (
	"testing"

	"repro/internal/sim"
)

// req is a queued read whose completion time stands for its value.
func req(v int) readReq { return readReq{done: sim.Time(v)} }

func TestFIFOOrder(t *testing.T) {
	var q readQueue
	for i := 0; i < 100; i++ {
		q.Push(req(i))
	}
	if q.Len() != 100 {
		t.Fatalf("len %d", q.Len())
	}
	for i := 0; i < 100; i++ {
		if got := q.Front().done; got != sim.Time(i) {
			t.Fatalf("front %d, want %d", got, i)
		}
		if got := q.Pop().done; got != sim.Time(i) {
			t.Fatalf("pop %d, want %d", got, i)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("len %d after drain", q.Len())
	}
}

func TestWrapAround(t *testing.T) {
	var q readQueue
	next, want := 0, 0
	// Sustained backlog forces the head to wrap repeatedly.
	for round := 0; round < 50; round++ {
		for i := 0; i < 7; i++ {
			q.Push(req(next))
			next++
		}
		for i := 0; i < 5; i++ {
			if got := q.Pop().done; got != sim.Time(want) {
				t.Fatalf("pop %d, want %d", got, want)
			}
			want++
		}
	}
	for q.Len() > 0 {
		if got := q.Pop().done; got != sim.Time(want) {
			t.Fatalf("drain pop %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("drained %d items, pushed %d", want, next)
	}
}

func TestPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pop on empty queue did not panic")
		}
	}()
	var q readQueue
	q.Pop()
}

func TestSteadyStateZeroAlloc(t *testing.T) {
	var q readQueue
	work := func() {
		for i := 0; i < 64; i++ {
			q.Push(req(i))
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}
	work()
	if avg := testing.AllocsPerRun(100, work); avg != 0 {
		t.Fatalf("steady-state queue cycling allocates %.1f times, want 0", avg)
	}
}

// FuzzFIFO differentially tests the read queue's ring against a plain
// slice model. The fuzz input is an op stream: each byte's low two bits
// select push/pop/front/len, and pushes use the byte itself as the value,
// so growth, wrap-around and the empty-queue edges are all exercised by
// short inputs.
func FuzzFIFO(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 0, 1, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var q readQueue
		var model []sim.Time
		for i, op := range ops {
			switch op & 3 {
			case 0: // push
				q.Push(req(int(op)))
				model = append(model, sim.Time(op))
			case 1: // pop
				if len(model) == 0 {
					mustPanic(t, "Pop", func() { q.Pop() })
					continue
				}
				want := model[0]
				model = model[1:]
				if got := q.Pop().done; got != want {
					t.Fatalf("op %d: Pop = %d, model says %d", i, got, want)
				}
			case 2: // front
				if len(model) == 0 {
					mustPanic(t, "Front", func() { q.Front() })
					continue
				}
				if got := q.Front().done; got != model[0] {
					t.Fatalf("op %d: Front = %d, model says %d", i, got, model[0])
				}
			case 3: // len
				if q.Len() != len(model) {
					t.Fatalf("op %d: Len = %d, model says %d", i, q.Len(), len(model))
				}
			}
		}
		// Drain and compare the tail: contents must match element for
		// element after any op sequence.
		if q.Len() != len(model) {
			t.Fatalf("final Len = %d, model says %d", q.Len(), len(model))
		}
		for i, want := range model {
			if got := q.Pop().done; got != want {
				t.Fatalf("drain %d: Pop = %d, model says %d", i, got, want)
			}
		}
	})
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s on empty queue did not panic", name)
		}
	}()
	f()
}
