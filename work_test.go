// Exact-work pins. Byte goldens see a run's output, not what it cost: a
// change that fires twice the events for the same bytes passes them all.
// These pins record, per run, the engine events fired, the interconnect
// messages sent and the grant rounds that carried them. The counts are
// deterministic, so the gate is exact: a change that moves one updates
// its pin and says why.
package clockgate

import (
	"testing"

	"repro/internal/core"
	"repro/internal/tcc"
	"repro/internal/workload"
)

// work is one run's exact work.
type work struct {
	events, messages, rounds uint64
}

// runWork runs both sides of rs's pair on tr, each on a machine built
// with tcc.NewSystem on rs.Config(gated), and returns their work,
// ungated first.
func runWork(t *testing.T, rs core.RunSpec, tr *workload.Trace) [2]work {
	t.Helper()
	var w [2]work
	for i, gated := range []bool{false, true} {
		sys, err := tcc.NewSystem(rs.Config(gated), tr)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		w[i] = work{sys.Engine().Fired(), res.BusStats.Messages, res.BusStats.Rounds}
	}
	return w
}

// TestPaperCellsExactWork pins the work of the paper campaign's 9 cells
// at scale 0.05 and seed 42, ungated and gated.
func TestPaperCellsExactWork(t *testing.T) {
	pins := []struct {
		app   App
		procs int
		work  [2]work
	}{
		{Genome, 4, [2]work{{37201, 9370, 7634}, {40997, 10191, 8448}}},
		{Genome, 8, [2]work{{75390, 21241, 14947}, {73674, 20230, 14500}}},
		{Genome, 16, [2]work{{102997, 30826, 18959}, {104937, 31190, 19297}}},
		{Yada, 4, [2]work{{40063, 9233, 7904}, {40444, 9337, 8071}}},
		{Yada, 8, [2]work{{90286, 23510, 17930}, {80353, 20951, 16028}}},
		{Yada, 16, [2]work{{124877, 34338, 22807}, {129073, 35568, 23476}}},
		{Intruder, 4, [2]work{{22900, 6659, 4836}, {19162, 5209, 4013}}},
		{Intruder, 8, [2]work{{32868, 10976, 6827}, {30622, 9740, 6612}}},
		{Intruder, 16, [2]work{{36673, 12672, 7424}, {39884, 13133, 8692}}},
	}
	opts := DefaultCampaignOptions()
	opts.Scale = 0.05
	cells := opts.Cells()
	if len(cells) != len(pins) {
		t.Fatalf("%d paper cells, want %d", len(cells), len(pins))
	}
	for i, c := range cells {
		p := pins[i]
		if c.App != p.app || c.Processors != p.procs {
			t.Fatalf("cell %d is %s/%dp, want %s/%dp", i, c.App, c.Processors, p.app, p.procs)
		}
		tr, err := GenerateTraceScaled(c.App, c.Processors, c.Seed, opts.Scale)
		if err != nil {
			t.Fatal(err)
		}
		rs := core.RunSpec{App: c.App, Processors: c.Processors, W0: c.W0, Seed: c.Seed}
		if got := runWork(t, rs, tr); got != p.work {
			t.Errorf("%s/%dp: work %+v, want %+v", c.App, c.Processors, got, p.work)
		}
	}
}
