package clockgate

import (
	"context"
	"testing"

	"repro/internal/config"
)

// quickTrace builds a small high-conflict custom workload so API tests
// stay fast.
func quickTrace(t testing.TB, procs int) *Trace {
	t.Helper()
	spec := WorkloadSpec{
		Name: "api-test", TotalTxs: 16 * procs, MeanTxOps: 8, TxOpsJitter: 0.4,
		WriteFrac: 0.5, HotLines: 8, HotFrac: 0.7, ZipfSkew: 1.0,
		PrivateLines: 64, ComputeMean: 3, InterTxMean: 6, TxTypes: 2,
	}
	tr, err := spec.Generate(procs, 31)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRunPairedExperiment(t *testing.T) {
	out, err := Run(Experiment{Trace: quickTrace(t, 4), Processors: 4, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	n1, n2 := out.Cycles()
	if n1 <= 0 || n2 <= 0 {
		t.Fatalf("cycles %d/%d", n1, n2)
	}
	eug, eg := out.Energy()
	if eug <= 0 || eg <= 0 {
		t.Fatalf("energy %f/%f", eug, eg)
	}
	if out.SpeedUp() <= 0 || out.EnergyReductionFactor() <= 0 {
		t.Fatal("ratios not positive")
	}
	if s := out.EnergySavings(); s <= -1 || s >= 1 {
		t.Fatalf("savings %f out of range", s)
	}
	c := out.Comparison()
	if int64(c.N1) != n1 || int64(c.N2) != n2 {
		t.Fatal("Comparison disagrees with Cycles")
	}
}

func TestRunValidatesProcessors(t *testing.T) {
	if _, err := Run(Experiment{App: Intruder, Processors: 0}); err == nil {
		t.Fatal("zero processors accepted")
	}
	if _, err := RunSingle(Experiment{App: Intruder, Processors: -1}, false); err == nil {
		t.Fatal("negative processors accepted")
	}
}

func TestRunSingle(t *testing.T) {
	tr := quickTrace(t, 2)
	ug, err := RunSingle(Experiment{Trace: tr, Processors: 2, Seed: 31}, false)
	if err != nil {
		t.Fatal(err)
	}
	g, err := RunSingle(Experiment{Trace: tr, Processors: 2, Seed: 31}, true)
	if err != nil {
		t.Fatal(err)
	}
	if ug.Gated || !g.Gated {
		t.Fatal("gated flags wrong")
	}
}

func TestGenerateTraceMatchesPresets(t *testing.T) {
	tr, err := GenerateTrace(Yada, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != string(Yada) || tr.NumThreads() != 4 {
		t.Fatalf("trace %q with %d threads", tr.Name, tr.NumThreads())
	}
}

func TestAppListings(t *testing.T) {
	if len(PaperApps()) != 3 {
		t.Fatalf("paper apps %v", PaperApps())
	}
	if len(AllApps()) != 8 {
		t.Fatalf("all apps %v", AllApps())
	}
}

func TestDefaultPowerModelIsTableI(t *testing.T) {
	m := DefaultPowerModel()
	if m.Run != 1.0 || m.Gated != 0.20 {
		t.Fatalf("power model %+v", m)
	}
}

func TestDefaultConfigIsTableII(t *testing.T) {
	c := DefaultConfig(8)
	if c.Machine.Processors != 8 || c.Machine.L1SizeBytes != 64<<10 {
		t.Fatalf("config %+v", c.Machine)
	}
}

func TestConfigureHook(t *testing.T) {
	tr := quickTrace(t, 2)
	called := 0
	_, err := Run(Experiment{
		Trace: tr, Processors: 2, Seed: 31,
		Configure: func(c *Config) {
			called++
			c.Gating.Policy = config.PolicyExponential
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if called != 2 {
		t.Fatalf("Configure called %d times", called)
	}
}

func TestW0ZeroMeansDefault(t *testing.T) {
	tr := quickTrace(t, 2)
	if _, err := Run(Experiment{Trace: tr, Processors: 2, W0: 0, Seed: 31}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSingleWithEvents(t *testing.T) {
	rec := NewEventRecorder()
	res, err := RunSingleWithEvents(Experiment{
		Trace: quickTrace(t, 4), Processors: 4, Seed: 31,
	}, true, rec)
	if err != nil {
		t.Fatal(err)
	}
	counts := rec.CountByKind()
	if uint64(counts[EvCommit]) != res.Counters.Commits {
		t.Fatalf("recorded %d commits, counters say %d", counts[EvCommit], res.Counters.Commits)
	}
	if uint64(counts[EvGate]) != res.Counters.Gatings {
		t.Fatalf("recorded %d gatings, counters say %d", counts[EvGate], res.Counters.Gatings)
	}
	if counts[EvTxBegin] == 0 {
		t.Fatal("no tx-begin events recorded")
	}
	if _, err := RunSingleWithEvents(Experiment{App: Intruder}, true, rec); err == nil {
		t.Fatal("zero processors accepted")
	}
}

func TestCampaignAPI(t *testing.T) {
	opts := DefaultCampaignOptions()
	opts.Scale = 0.02
	opts.Processors = []int{2, 4}
	opts.Workers = 4
	session := NewSession(opts)
	defer session.Close()
	c, err := session.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Outcomes) != 6 { // 3 paper apps x 2 processor counts
		t.Fatalf("%d outcomes", len(c.Outcomes))
	}
	s := c.Summarize()
	if s.AvgSpeedUp <= 0 {
		t.Fatalf("summary %+v", s)
	}
}

func TestScenarioMatrixAPI(t *testing.T) {
	m := ScenarioMatrix()
	if len(m) == 0 {
		t.Fatal("empty scenario matrix")
	}
	s, ok := ScenarioByID(m[0].ID)
	if !ok || s != m[0] {
		t.Fatalf("ScenarioByID(%q) = %+v, %v", m[0].ID, s, ok)
	}
	if _, ok := ScenarioByName(m[0].Name()); !ok {
		t.Fatalf("ScenarioByName(%q) failed", m[0].Name())
	}
}

func TestEventRecorderFilterViaPublicAPI(t *testing.T) {
	rec := NewEventRecorder().Filter(EvGate)
	_, err := RunSingleWithEvents(Experiment{
		Trace: quickTrace(t, 4), Processors: 4, Seed: 31,
	}, true, rec)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range rec.Events() {
		if e.Kind != EvGate {
			t.Fatalf("filter leaked %v", e.Kind)
		}
	}
}
