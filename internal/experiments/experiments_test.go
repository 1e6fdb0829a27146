package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/stamp"
)

// newSession returns a Session for o that closes when the test ends.
func newSession(t testing.TB, o Options) *Session {
	t.Helper()
	s := NewSession(o)
	t.Cleanup(func() { s.Close() })
	return s
}

// quickOptions is a fast, scaled-down campaign for tests.
func quickOptions() Options {
	return Options{
		Seed:       42,
		Scale:      0.05,
		Processors: []int{2, 4},
		Apps:       []stamp.App{stamp.Intruder, stamp.Genome},
	}
}

func TestTableIText(t *testing.T) {
	out := TableI()
	for _, want := range []string{"Run", "1.00", "Cache Miss", "0.32",
		"Transaction Commit", "0.44", "Clock Gated", "0.20"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table I missing %q:\n%s", want, out)
		}
	}
}

func TestTableIIText(t *testing.T) {
	out := TableII()
	for _, want := range []string{"1-16 single issue in-order cores",
		"64KB, 64 byte line size", "2-way associative, 1 cycle latency",
		"Full-bit vector sharer, 10 cycle latency",
		"1GB, 100 cycle latency, single R/W port"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table II missing %q:\n%s", want, out)
		}
	}
}

func TestFig3Text(t *testing.T) {
	out := Fig3()
	for _, want := range []string{"Figure 3", "16KB", "128KB", "1.5x"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fig3 missing %q:\n%s", want, out)
		}
	}
}

func TestCampaignRunsAndRenders(t *testing.T) {
	c, err := newSession(t, quickOptions()).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Outcomes) != 4 { // 2 apps x 2 processor counts
		t.Fatalf("%d outcomes", len(c.Outcomes))
	}
	for _, render := range []struct {
		name string
		out  string
	}{
		{"fig4", c.Fig4()},
		{"fig5", c.Fig5()},
		{"fig6", c.Fig6()},
		{"detail", c.DetailTable()},
	} {
		if !strings.Contains(render.out, "intruder") {
			t.Fatalf("%s missing app label:\n%s", render.name, render.out)
		}
	}
	if !strings.Contains(c.SummaryText(), "Average energy reduction") {
		t.Fatal("summary missing headline metric")
	}
	if !strings.Contains(c.Fig4(), "speed-up") {
		t.Fatal("Fig4 missing speed-up annotations")
	}
	if !strings.Contains(c.Fig5(), "reduction") {
		t.Fatal("Fig5 missing reduction annotations")
	}
}

func TestSummarize(t *testing.T) {
	c, err := newSession(t, quickOptions()).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s := c.Summarize()
	if s.AvgSpeedUp <= 0 {
		t.Fatalf("avg speedup %f", s.AvgSpeedUp)
	}
	if s.AvgEnergyReduction <= -1 || s.AvgEnergyReduction >= 1 {
		t.Fatalf("avg energy reduction %f out of range", s.AvgEnergyReduction)
	}
	if s.Slowdowns < 0 || s.Slowdowns > len(c.Outcomes) {
		t.Fatalf("slowdowns %d", s.Slowdowns)
	}
}

func TestSummarizeEmptyCampaign(t *testing.T) {
	c := &Campaign{}
	s := c.Summarize()
	if s.AvgSpeedUp != 0 || s.Slowdowns != 0 {
		t.Fatal("empty campaign summary not zero")
	}
}

func TestFig7Runs(t *testing.T) {
	o := quickOptions()
	o.Processors = []int{2}
	o.Apps = []stamp.App{stamp.Intruder}
	out, err := newSession(t, o).Fig7(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 7", "W0", "Np=2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fig7 missing %q:\n%s", want, out)
		}
	}
}

func TestScaleReducesWork(t *testing.T) {
	o := quickOptions()
	cell := Cell{App: stamp.Intruder, Processors: 2, Seed: o.Seed}
	small, err := NewSession(o).trace(cell)
	if err != nil {
		t.Fatal(err)
	}
	o.Scale = 0.5
	big, err := NewSession(o).trace(cell)
	if err != nil {
		t.Fatal(err)
	}
	if small.TotalTxs() >= big.TotalTxs() {
		t.Fatalf("scale not applied: %d vs %d", small.TotalTxs(), big.TotalTxs())
	}
}

func TestDefaultOptionsMatchPaperMatrix(t *testing.T) {
	o := DefaultOptions()
	if got := o.processors(); len(got) != 3 || got[0] != 4 || got[1] != 8 || got[2] != 16 {
		t.Fatalf("processors %v", got)
	}
	apps := o.apps()
	if len(apps) != 3 {
		t.Fatalf("apps %v", apps)
	}
}
