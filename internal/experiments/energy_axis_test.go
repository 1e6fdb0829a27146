package experiments

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/power"
	"repro/internal/stamp"
	"repro/internal/stats"
	"repro/internal/tcc"
)

// TestCSVRendersDegenerateRatiosAsNA is the regression for the NaN leak:
// power.Compare over empty ledgers divides zero by zero, and %.6f used to
// print the resulting NaN literally into the ratio columns. Degenerate
// rows must render the parseable missing-value marker "NA" instead.
func TestCSVRendersDegenerateRatiosAsNA(t *testing.T) {
	empty := func() *tcc.Result {
		l := stats.NewLedger(1)
		l.Close(0) // zero-length run: every residency total is 0
		return &tcc.Result{Ledger: l}
	}
	out := &core.Outcome{
		Ungated:    empty(),
		Gated:      empty(),
		Comparison: power.Compare(power.Default(), empty().Ledger, empty().Ledger),
	}
	c := &Campaign{
		Cells:    []Cell{{App: stamp.Intruder, Processors: 1}},
		Outcomes: []*core.Outcome{out},
	}
	var b strings.Builder
	if err := c.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if strings.Contains(got, "NaN") || strings.Contains(got, "Inf") {
		t.Fatalf("degenerate row leaks a float non-value:\n%s", got)
	}
	if !strings.Contains(got, "NA") {
		t.Fatalf("degenerate ratios did not render as NA:\n%s", got)
	}
}

// TestCheckpointKeyIncludesTech is the collision regression for the
// energy axis: two cells differing only in technology point record the
// same timings but price to different energy columns, so the checkpoint
// must never replay one as the other. The empty sentinel and the spelled
// out default must collide on purpose — they are the same cell.
func TestCheckpointKeyIncludesTech(t *testing.T) {
	base := Cell{App: stamp.Intruder, Processors: 8, Seed: 7}
	t45 := base
	t45.Tech = "t45"
	if base.Key() == t45.Key() {
		t.Fatal("cells differing only in tech share a checkpoint key")
	}
	spelled := base
	spelled.Tech = energy.DefaultName
	if base.Key() != spelled.Key() {
		t.Fatal("empty tech sentinel and spelled-out default must share a key")
	}
}

// TestTraceCacheIgnoresTech extends the trace-cache key audit to the
// energy axis: Tech changes neither the workload nor the machine timing,
// so cells differing only in technology point must share one generated
// trace — the sharing that makes the reprice golden's fresh campaign
// cheap, and the independence that makes journal re-pricing sound.
func TestTraceCacheIgnoresTech(t *testing.T) {
	s := NewSession(Options{Seed: 7, Scale: 0.02})
	defer s.Close()

	base := Cell{App: stamp.Intruder, Processors: 8, Seed: 7}
	repriced := base
	repriced.Tech = "t32"
	outs, err := s.RunCells(context.Background(), []Cell{base, repriced})
	if err != nil {
		t.Fatal(err)
	}
	entries := len(traceCacheKeys(s))
	if entries != 1 {
		t.Fatalf("cells differing only in tech occupy %d trace-cache entries, want 1", entries)
	}
	// Same timings, different pricing: the cycle counts agree, the energy
	// totals do not (t32 leaks more).
	if outs[0].Comparison.N2 != outs[1].Comparison.N2 {
		t.Fatal("tech changed timing; it must be a pure pricing axis")
	}
	if outs[0].Comparison.Eg == outs[1].Comparison.Eg {
		t.Fatal("distinct techs priced identically")
	}
}

// TestRepriceRoundTripEquivalence is the RestoreLedger round-trip pin at
// the engine level: re-pricing a journal under an empty tech list (each
// record's own recorded tech) must reproduce the original campaign's CSV
// byte for byte — restored integer residency totals price identically to
// live ones.
func TestRepriceRoundTripEquivalence(t *testing.T) {
	o := tinyOptions()
	o.Apps = []stamp.App{stamp.Intruder, stamp.Vacation}
	o.Tech = "t45"
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	s := NewSession(o)
	defer s.Close()
	if err := s.SetCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	cells := o.Cells()
	outs, err := s.RunCells(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	live := &Campaign{Options: o, Cells: cells, Outcomes: outs}
	var liveCSV strings.Builder
	if err := live.WriteCSV(&liveCSV); err != nil {
		t.Fatal(err)
	}

	restored, err := RepriceFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	var restoredCSV strings.Builder
	if err := restored.WriteCSV(&restoredCSV); err != nil {
		t.Fatal(err)
	}
	if liveCSV.String() != restoredCSV.String() {
		t.Fatalf("round-trip CSV diverges:\nlive:\n%s\nrestored:\n%s", liveCSV.String(), restoredCSV.String())
	}
}
