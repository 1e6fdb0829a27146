package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/config"
	"repro/internal/power"
	"repro/internal/stamp"
	"repro/internal/workload"
)

// quickSpec is a small high-conflict workload for fast paired runs.
func quickSpec() workload.Spec {
	return workload.Spec{
		Name: "quick", TotalTxs: 64, MeanTxOps: 8, TxOpsJitter: 0.4,
		WriteFrac: 0.5, HotLines: 8, HotFrac: 0.7, ZipfSkew: 1.0,
		PrivateLines: 64, ComputeMean: 3, InterTxMean: 6, TxTypes: 2,
	}
}

func quickTrace(t *testing.T, procs int) *workload.Trace {
	t.Helper()
	qs := quickSpec()
	tr, err := qs.Generate(procs, 17)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRunPairProducesBothResults(t *testing.T) {
	out, err := RunPair(context.Background(), RunSpec{Trace: quickTrace(t, 4), Processors: 4, Seed: 17}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Ungated == nil || out.Gated == nil {
		t.Fatal("missing run results")
	}
	if out.Ungated.Gated || !out.Gated.Gated {
		t.Fatal("gated flags wrong")
	}
	c := out.Comparison
	if c.N1 != out.Ungated.Cycles || c.N2 != out.Gated.Cycles {
		t.Fatal("comparison cycles do not match runs")
	}
	if math.IsNaN(c.EnergyRatio) || c.EnergyRatio <= 0 {
		t.Fatalf("energy ratio %f", c.EnergyRatio)
	}
}

func TestRunPairUsesSameTrace(t *testing.T) {
	out, err := RunPair(context.Background(), RunSpec{Trace: quickTrace(t, 2), Processors: 2, Seed: 17}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Identical work: both runs commit the same transaction count.
	if out.Ungated.Counters.Commits != out.Gated.Counters.Commits {
		t.Fatalf("commit counts differ: %d vs %d",
			out.Ungated.Counters.Commits, out.Gated.Counters.Commits)
	}
}

func TestRunPairFromPreset(t *testing.T) {
	// Preset path (no explicit trace): shrink the workload via Configure
	// being unavailable for specs — use a tiny preset run at 4 procs.
	out, err := RunPair(context.Background(), RunSpec{App: stamp.KMeans, Processors: 4, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Ungated.TraceName != string(stamp.KMeans) {
		t.Fatalf("trace name %q", out.Ungated.TraceName)
	}
}

// TestRunOneRespectsGatedFlag: the one side runner runs the side it is
// asked for.
func TestRunOneRespectsGatedFlag(t *testing.T) {
	rs := RunSpec{Trace: quickTrace(t, 2), Processors: 2, Seed: 17}
	ug, err := RunSide(context.Background(), rs, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := RunSide(context.Background(), rs, true, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ug.Gated || !g.Gated {
		t.Fatal("gated flag not respected")
	}
}

func TestConfigureHookApplies(t *testing.T) {
	tr := quickTrace(t, 2)
	called := 0
	_, err := RunPair(context.Background(), RunSpec{
		Trace: tr, Processors: 2, Seed: 17,
		Configure: func(c *config.Config) {
			called++
			c.Machine.MemoryCycles = 50
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if called != 2 {
		t.Fatalf("Configure called %d times, want once per run", called)
	}
}

func TestW0Propagates(t *testing.T) {
	tr := quickTrace(t, 4)
	a, err := RunPair(context.Background(), RunSpec{Trace: tr, Processors: 4, Seed: 17, W0: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunPair(context.Background(), RunSpec{Trace: tr, Processors: 4, Seed: 17, W0: 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Different W0 must change the gated run (ungated identical).
	if a.Ungated.Cycles != b.Ungated.Cycles {
		t.Fatal("ungated runs differ across W0")
	}
	if a.Gated.Cycles == b.Gated.Cycles &&
		a.Gated.Counters.Renewals == b.Gated.Counters.Renewals {
		t.Fatal("W0 had no effect on the gated run")
	}
}

func TestCustomPowerModel(t *testing.T) {
	tr := quickTrace(t, 2)
	deflt, err := RunPair(context.Background(), RunSpec{Trace: tr, Processors: 2, Seed: 17}, nil)
	if err != nil {
		t.Fatal(err)
	}
	srpg, err := RunPair(context.Background(), RunSpec{Trace: tr, Processors: 2, Seed: 17,
		Model: power.Default().WithSRPG(0.1)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Same runs, cheaper gated state: energy ratio must not decrease.
	if srpg.Comparison.EnergyRatio < deflt.Comparison.EnergyRatio-1e-9 {
		t.Fatalf("SRPG model lowered the energy ratio: %f vs %f",
			srpg.Comparison.EnergyRatio, deflt.Comparison.EnergyRatio)
	}
}

func TestUnknownPresetFails(t *testing.T) {
	if _, err := RunPair(context.Background(), RunSpec{App: stamp.App("nope"), Processors: 2, Seed: 1}, nil); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

// TestAssembleErrorPrecedence pins the one pair-assembly path: whichever
// way a pair's sides were obtained, a failed ungated side is the pair's
// error even when the gated side failed too, a gated failure surfaces
// alone otherwise, and a done context reports ctx.Err().
func TestAssembleErrorPrecedence(t *testing.T) {
	rs := RunSpec{Trace: quickTrace(t, 2), Processors: 2, Seed: 17}
	ungated, err := RunSide(context.Background(), rs, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	gated, err := RunSide(context.Background(), rs, true, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	errU, errG := errors.New("ungated broke"), errors.New("gated broke")
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name       string
		ctx        context.Context
		uErr, gErr error
		want       error
	}{
		{"both fail", context.Background(), errU, errG, errU},
		{"ungated fails", context.Background(), errU, nil, errU},
		{"gated fails", context.Background(), nil, errG, errG},
		{"canceled", canceled, errU, errG, context.Canceled},
	} {
		out, err := Assemble(tc.ctx, rs, ungated, tc.uErr, gated, tc.gErr)
		if out != nil || !errors.Is(err, tc.want) {
			t.Errorf("%s: outcome %v, error %v, want %v", tc.name, out, err, tc.want)
		}
	}
	out, err := Assemble(context.Background(), rs, ungated, nil, gated, nil)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := RunPair(context.Background(), rs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Comparison != pair.Comparison {
		t.Fatalf("assembled sides compare as %+v, RunPair as %+v", out.Comparison, pair.Comparison)
	}
}
