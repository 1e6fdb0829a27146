package power

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestTableIFactors(t *testing.T) {
	// The paper's Table I: Run 1.0, Cache Miss 0.32, Transaction Commit
	// 0.44, Clock Gated 0.20 — derived, not hard-coded.
	m := Default()
	if m.Run != 1.0 {
		t.Errorf("Run = %f", m.Run)
	}
	if !almost(m.Miss, 0.32, 1e-12) {
		t.Errorf("Miss = %f, want 0.32", m.Miss)
	}
	if !almost(m.Commit, 0.44, 1e-12) {
		t.Errorf("Commit = %f, want 0.44", m.Commit)
	}
	if !almost(m.Gated, 0.20, 1e-12) {
		t.Errorf("Gated = %f, want 0.20", m.Gated)
	}
}

func TestDeriveFollowsPaperArithmetic(t *testing.T) {
	b := DefaultBreakdown()
	m := Derive(b)
	// Commit = 0.2 + 0.8*(0.15+0.05+0.1)
	wantCommit := b.Leakage + (1-b.Leakage)*(b.DataCache*b.TCCCacheFactor+b.IO+b.CacheIOClock)
	if m.Commit != wantCommit {
		t.Errorf("Commit %f, want %f", m.Commit, wantCommit)
	}
	// Miss = 0.2 + 0.8*0.5*(0.15+0.05+0.1)
	wantMiss := b.Leakage + (1-b.Leakage)*b.MissActivity*(b.DataCache*b.TCCCacheFactor+b.IO+b.CacheIOClock)
	if m.Miss != wantMiss {
		t.Errorf("Miss %f, want %f", m.Miss, wantMiss)
	}
}

func TestDeriveRespondsToLeakage(t *testing.T) {
	b := DefaultBreakdown()
	b.Leakage = 0.30
	m := Derive(b)
	if m.Gated != 0.30 {
		t.Errorf("Gated %f, want leakage 0.30", m.Gated)
	}
	if m.Miss <= Default().Miss {
		t.Error("higher leakage should raise miss power")
	}
}

func TestFactorMapsStates(t *testing.T) {
	m := Default()
	if m.Factor(stats.StateRun) != m.Run ||
		m.Factor(stats.StateMiss) != m.Miss ||
		m.Factor(stats.StateCommit) != m.Commit ||
		m.Factor(stats.StateGated) != m.Gated {
		t.Fatal("Factor does not map states to factors")
	}
}

func TestFactorPanicsOnUnknownState(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown state did not panic")
		}
	}()
	Default().Factor(stats.State(9))
}

func TestWithSRPG(t *testing.T) {
	m := Default().WithSRPG(0.25)
	if !almost(m.Gated, 0.05, 1e-12) {
		t.Errorf("SRPG gated %f, want 0.05", m.Gated)
	}
	if m.Run != 1.0 || !almost(m.Miss, 0.32, 1e-12) {
		t.Error("SRPG changed non-gated factors")
	}
}

func TestWithSRPGPanicsOutOfRange(t *testing.T) {
	for _, keep := range []float64{-0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WithSRPG(%f) did not panic", keep)
				}
			}()
			Default().WithSRPG(keep)
		}()
	}
}

// step is one power-state transition of a hand-built run.
type step struct {
	p  int
	s  stats.State
	at sim.Time
}

// replay runs steps on procs processors up to end, recorded both ways: in
// a residency ledger and as the state events trace.Segments folds into
// the per-transition timeline.
func replay(procs int, end sim.Time, steps ...step) (*stats.Ledger, [][]stats.Segment) {
	l := stats.NewLedger(procs)
	var events []trace.Event
	for _, st := range steps {
		l.Transition(st.p, st.s, st.at)
		events = append(events, trace.Event{At: st.at, Kind: trace.EvState, Proc: st.p, State: st.s})
	}
	l.Close(end)
	return l, trace.Segments(events, procs, end)
}

// ledgerFixture is a 2-processor run:
//
//	proc 0: run [0,40), miss [40,60), commit [60,70), run [70,100)
//	proc 1: run [0,20), gated [20,80), run [80,100)
func ledgerFixture() (*stats.Ledger, [][]stats.Segment) {
	return replay(2, 100,
		step{0, stats.StateMiss, 40}, step{0, stats.StateCommit, 60}, step{0, stats.StateRun, 70},
		step{1, stats.StateGated, 20}, step{1, stats.StateRun, 80})
}

func TestEnergyIntegration(t *testing.T) {
	l, _ := ledgerFixture()
	m := Default()
	want := (40+30)*1.0 + 20*0.32 + 10*0.44 + // proc 0
		(20+20)*1.0 + 60*0.20 // proc 1
	if got := m.Energy(l); !almost(got, want, 1e-9) {
		t.Fatalf("Energy = %f, want %f", got, want)
	}
}

func TestCompareMetrics(t *testing.T) {
	// Ungated: 2 procs, all run, 100 cycles -> Eug = 200, Pug = 2.
	ug := stats.NewLedger(2)
	ug.Close(100)
	// Gated: 2 procs, 80 cycles; proc 1 gated for 40 of them.
	g := stats.NewLedger(2)
	g.Transition(1, stats.StateGated, 20)
	g.Transition(1, stats.StateRun, 60)
	g.Close(80)

	m := Default()
	c := Compare(m, ug, g)
	if c.N1 != 100 || c.N2 != 80 {
		t.Fatalf("N1=%d N2=%d", c.N1, c.N2)
	}
	wantEg := 80.0 + 40 + 40*0.2 // proc0 run 80, proc1 run 40 + gated 40
	if !almost(c.Eg, wantEg, 1e-9) {
		t.Fatalf("Eg %f, want %f", c.Eg, wantEg)
	}
	if !almost(c.SpeedUp, 100.0/80, 1e-12) {
		t.Fatalf("speedup %f", c.SpeedUp)
	}
	if !almost(c.EnergyRatio, 200/wantEg, 1e-9) {
		t.Fatalf("energy ratio %f", c.EnergyRatio)
	}
	if !almost(c.AvgPowerRatio, c.EnergyRatio*80/100, 1e-9) {
		t.Fatalf("power ratio %f", c.AvgPowerRatio)
	}
	if !almost(c.EnergySavings, 1-wantEg/200, 1e-9) {
		t.Fatalf("savings %f", c.EnergySavings)
	}
}

func TestCompareEquation7Identity(t *testing.T) {
	// AveragePowerReduction = (Eug/Eg) * (N2/N1) must equal Pug/Pg.
	ug, _ := ledgerFixture()
	g := stats.NewLedger(2)
	g.Transition(0, stats.StateGated, 10)
	g.Transition(0, stats.StateRun, 50)
	g.Close(90)
	c := Compare(Default(), ug, g)
	if !almost(c.AvgPowerRatio, c.Pug/c.Pg, 1e-9) {
		t.Fatalf("eq7 identity violated: %f vs %f", c.AvgPowerRatio, c.Pug/c.Pg)
	}
}
