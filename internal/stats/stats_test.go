package stats

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestLedgerBasicResidency(t *testing.T) {
	l := NewLedger(2)
	l.Transition(0, StateMiss, 10)
	l.Transition(0, StateRun, 30)
	l.Transition(1, StateGated, 50)
	l.Close(100)

	res := l.ResidencyTotals()
	// Proc 0: run [0,10), miss [10,30), run [30,100).
	if res[0][StateRun] != 80 || res[0][StateMiss] != 20 {
		t.Fatalf("proc 0 residency %+v", res[0])
	}
	// Proc 1: run [0,50), gated [50,100).
	if res[1][StateRun] != 50 || res[1][StateGated] != 50 {
		t.Fatalf("proc 1 residency %+v", res[1])
	}
}

// A transition into the current state neither moves the state's entry
// time nor changes the totals: a later transition is measured from the
// original entry, and going back to time 7 after the no-op at 9 is legal.
func TestLedgerSameStateTransitionIsNoop(t *testing.T) {
	l := NewLedger(1)
	l.Transition(0, StateRun, 5)
	l.Transition(0, StateRun, 9)
	l.Transition(0, StateMiss, 7)
	l.Close(10)
	if res := l.ResidencyTotals(); res[0][StateRun] != 7 || res[0][StateMiss] != 3 {
		t.Fatalf("residency %+v", res[0])
	}
}

func TestLedgerZeroLengthSegmentDropped(t *testing.T) {
	l := NewLedger(1)
	l.Transition(0, StateMiss, 5)
	l.Transition(0, StateRun, 5) // zero-length miss
	l.Close(10)
	res := l.ResidencyTotals()
	if res[0][StateMiss] != 0 || res[0][StateRun] != 10 {
		t.Fatalf("residency %+v", res[0])
	}
}

func TestLedgerBackwardsTransitionPanics(t *testing.T) {
	l := NewLedger(1)
	l.Transition(0, StateMiss, 10)
	defer func() {
		if recover() == nil {
			t.Error("backwards transition did not panic")
		}
	}()
	l.Transition(0, StateRun, 5)
}

func TestLedgerTransitionAfterClosePanics(t *testing.T) {
	l := NewLedger(1)
	l.Close(10)
	defer func() {
		if recover() == nil {
			t.Error("transition after close did not panic")
		}
	}()
	l.Transition(0, StateMiss, 20)
}

func TestLedgerTotalsBeforeClosePanics(t *testing.T) {
	l := NewLedger(1)
	defer func() {
		if recover() == nil {
			t.Error("ResidencyTotals before Close did not panic")
		}
	}()
	l.ResidencyTotals()
}

func TestLedgerDoubleCloseIdempotent(t *testing.T) {
	l := NewLedger(1)
	l.Close(10)
	l.Close(20) // must not extend or panic
	if l.End() != 10 {
		t.Fatalf("End %d, want 10", l.End())
	}
}

func TestCurrentState(t *testing.T) {
	l := NewLedger(1)
	if l.CurrentState(0) != StateRun {
		t.Fatal("initial state not run")
	}
	l.Transition(0, StateGated, 3)
	if l.CurrentState(0) != StateGated {
		t.Fatal("current state not tracked")
	}
}

func TestTotalResidencySums(t *testing.T) {
	l := NewLedger(3)
	l.Transition(1, StateMiss, 10)
	l.Transition(2, StateCommit, 20)
	l.Close(50)
	tot := l.TotalResidency()
	if tot[StateRun]+tot[StateMiss]+tot[StateCommit]+tot[StateGated] != 150 {
		t.Fatalf("total residency %+v does not cover 3 procs x 50 cycles", tot)
	}
	if tot[StateMiss] != 40 || tot[StateCommit] != 30 {
		t.Fatalf("total residency %+v", tot)
	}
}

func TestStateStrings(t *testing.T) {
	want := map[State]string{
		StateRun: "run", StateMiss: "miss", StateCommit: "commit", StateGated: "gated",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("State(%d).String() = %q, want %q", s, s.String(), w)
		}
	}
	if State(99).String() == "" {
		t.Error("unknown state empty string")
	}
}

func TestCountersAbortRate(t *testing.T) {
	c := Counters{Aborts: 30, Commits: 10}
	if c.AbortRate() != 3 {
		t.Fatalf("abort rate %f", c.AbortRate())
	}
	if (&Counters{}).AbortRate() != 0 {
		t.Fatal("zero-commit abort rate not 0")
	}
}

// Property: residencies always partition procs x run length, regardless
// of the transition pattern.
func TestQuickResidencyPartition(t *testing.T) {
	f := func(seed uint64, nProcsRaw, nTransRaw uint8) bool {
		procs := int(nProcsRaw%4) + 1
		trans := int(nTransRaw % 50)
		rng := sim.NewRNG(seed, 9)
		l := NewLedger(procs)
		now := sim.Time(0)
		for i := 0; i < trans; i++ {
			now += sim.Time(rng.Intn(20))
			l.Transition(rng.Intn(procs), State(rng.Intn(int(NumStates))), now)
		}
		end := now + sim.Time(rng.Intn(10)+1)
		l.Close(end)
		tot := l.TotalResidency()
		var sum sim.Time
		for s := 0; s < NumStates; s++ {
			sum += tot[s]
		}
		return sum == sim.Time(procs)*end
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
