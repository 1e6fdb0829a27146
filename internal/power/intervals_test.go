package power

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/stats"
)

func TestIntervalsSimpleDecomposition(t *testing.T) {
	// proc 0 gated [10,30), proc 1 miss [20,40): overlap [20,30) has
	// exactly 2 low-power processors.
	_, segs := replay(2, 50,
		step{0, stats.StateGated, 10}, step{0, stats.StateRun, 30},
		step{1, stats.StateMiss, 20}, step{1, stats.StateRun, 40})

	im := Intervals(segs, 50)
	if im.N != 50 || im.P != 2 {
		t.Fatalf("N=%d P=%d", im.N, im.P)
	}
	// X1: [10,20) + [30,40) = 20; X2: [20,30) = 10; X0: rest = 20.
	if im.X[0] != 20 || im.X[1] != 20 || im.X[2] != 10 {
		t.Fatalf("X = %v", im.X)
	}
	// In X2, one of two procs is miss-stalled: alpha = 1/2.
	if !almost(im.Alpha[2], 0.5, 1e-12) {
		t.Fatalf("Alpha[2] = %f", im.Alpha[2])
	}
	if im.Beta[2] != 0 {
		t.Fatalf("Beta[2] = %f", im.Beta[2])
	}
	// In X1 intervals, half the time it's the gated proc (alpha 0) and
	// half the miss proc (alpha 1): weighted alpha = 0.5.
	if !almost(im.Alpha[1], 0.5, 1e-12) {
		t.Fatalf("Alpha[1] = %f", im.Alpha[1])
	}
}

func TestGatedEnergyMatchesDirectIntegration(t *testing.T) {
	l, segs := ledgerFixture()
	m := Default()
	im := Intervals(segs, l.End())
	direct := m.Energy(l)
	viaIntervals := im.GatedEnergy(m)
	if !almost(direct, viaIntervals, 1e-6) {
		t.Fatalf("direct %f vs eq(1) %f", direct, viaIntervals)
	}
}

func TestUngatedEnergyMatchesDirectIntegration(t *testing.T) {
	// Ledger with no gated time: eq (5) must equal direct integration.
	l, segs := replay(3, 60,
		step{0, stats.StateMiss, 10}, step{0, stats.StateRun, 25},
		step{1, stats.StateCommit, 30}, step{1, stats.StateRun, 45},
		step{2, stats.StateMiss, 5}, step{2, stats.StateCommit, 20}, step{2, stats.StateRun, 35})
	m := Default()
	direct := m.Energy(l)
	via := Intervals(segs, l.End()).UngatedEnergy(m)
	if !almost(direct, via, 1e-6) {
		t.Fatalf("direct %f vs eq(5) %f", direct, via)
	}
}

// Property (the paper's own cross-check): for ANY ledger, equation (1)
// evaluated over the Xi/alpha/beta decomposition equals the direct
// per-processor energy integration.
func TestQuickEquation1EqualsDirect(t *testing.T) {
	m := Default()
	f := func(seed uint64, nProcsRaw, nTransRaw uint8) bool {
		procs := int(nProcsRaw%6) + 1
		trans := int(nTransRaw % 60)
		rng := sim.NewRNG(seed, 21)
		var steps []step
		now := sim.Time(0)
		for i := 0; i < trans; i++ {
			now += sim.Time(rng.Intn(15))
			steps = append(steps, step{rng.Intn(procs), stats.State(rng.Intn(int(stats.NumStates))), now})
		}
		l, segs := replay(procs, now+sim.Time(rng.Intn(20)+1), steps...)
		direct := m.Energy(l)
		via := Intervals(segs, l.End()).GatedEnergy(m)
		return math.Abs(direct-via) < 1e-6*(1+math.Abs(direct))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Xi sums with X0 to the full parallel time.
func TestQuickIntervalsPartitionTime(t *testing.T) {
	f := func(seed uint64, nTransRaw uint8) bool {
		rng := sim.NewRNG(seed, 22)
		var steps []step
		now := sim.Time(0)
		for i := 0; i < int(nTransRaw%40); i++ {
			now += sim.Time(rng.Intn(11))
			steps = append(steps, step{rng.Intn(4), stats.State(rng.Intn(int(stats.NumStates))), now})
		}
		_, segs := replay(4, now+5, steps...)
		im := Intervals(segs, now+5)
		var sum sim.Time
		for _, x := range im.X {
			sum += x
		}
		return sum == im.N
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
