package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
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

// TestReadJournalRobustness pins the journal reader's tolerance
// contract: corrupt interior lines and a torn final line are skipped
// exactly as checkpoint replay drops them, and duplicated cells
// deduplicate last-record-wins.
func TestReadJournalRobustness(t *testing.T) {
	o := tinyOptions()
	o.Apps = []stamp.App{stamp.Intruder}
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	s := NewSession(o)
	defer s.Close()
	if err := s.SetCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunCells(context.Background(), o.Cells()); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	want := len(lines) - 1 // records, excluding the header
	if want < 1 {
		t.Fatalf("campaign journaled %d records", want)
	}

	// Corrupt interior garbage + duplicate of the first record + torn tail.
	mangled := strings.Join(lines, "\n") + "\n" +
		"{not json}\n" +
		lines[1] + "\n" +
		lines[1][:len(lines[1])/2]
	recs, err := ReadJournal(strings.NewReader(mangled))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != want {
		t.Fatalf("mangled journal yields %d records, want %d", len(recs), want)
	}
	for i, rec := range recs {
		if i > 0 && recs[i-1].Cell.Index > rec.Cell.Index {
			t.Fatal("journal records not in canonical index order")
		}
	}

	// A version from the future is refused, not misread.
	future := strings.Replace(lines[0], `"version":3`, `"version":99`, 1)
	if future == lines[0] {
		t.Fatalf("header %q does not carry version 3", lines[0])
	}
	if _, err := ReadJournal(strings.NewReader(future + "\n" + lines[1])); err == nil {
		t.Fatal("foreign journal version accepted")
	}
	if _, err := ReadJournal(strings.NewReader("")); err == nil {
		t.Fatal("empty journal accepted")
	}
}

// TestJournalSkipsOverlongLine: a line longer than MaxJournalLine is
// skipped like any corrupt line, by the journal reader and by checkpoint
// replay alike. A scale-0.05 paper journal with a 2 MiB junk line after
// its fifth line re-prices to the CSV of the journal without it, and a
// -resume on it restores all 9 cells. A header that long is refused.
func TestJournalSkipsOverlongLine(t *testing.T) {
	o := DefaultOptions()
	o.Scale = 0.05
	dir := t.TempDir()
	clean := filepath.Join(dir, "clean.jsonl")
	s := NewSession(o)
	if err := s.SetCheckpoint(clean); err != nil {
		t.Fatal(err)
	}
	live, err := s.Run(context.Background())
	s.Close()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	if len(lines) != 11 || lines[10] != "" {
		t.Fatalf("journal has %d lines, want a header and 9 records", len(lines)-1)
	}
	junk := strings.Repeat("x", 2<<20) + "\n"
	mangled := filepath.Join(dir, "mangled.jsonl")
	if err := os.WriteFile(mangled, []byte(strings.Join(lines[:5], "")+junk+strings.Join(lines[5:], "")), 0o644); err != nil {
		t.Fatal(err)
	}

	repriced := func(path string) string {
		t.Helper()
		c, err := RepriceFile(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := c.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if got, want := repriced(mangled), repriced(clean); got != want {
		t.Fatalf("the journal with a junk line re-prices to:\n%s\nwithout it:\n%s", got, want)
	}

	s = NewSession(o)
	defer s.Close()
	if err := s.SetCheckpoint(mangled); err != nil {
		t.Fatal(err)
	}
	resumed, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Checkpoint().Restored(); got != 9 {
		t.Errorf("-resume restored %d cells, want 9", got)
	}
	var a, b strings.Builder
	if err := live.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := resumed.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("the resumed campaign's CSV differs from the live one")
	}

	if _, err := ReadJournal(strings.NewReader(junk + string(raw))); err == nil || !strings.Contains(err.Error(), "header") {
		t.Errorf("a journal whose first line is too long read with error %v, want a corrupt header", err)
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

// twoCellJournal runs a two-cell campaign (intruder on 2 and 4
// processors) with a checkpoint attached and returns its journal.
func twoCellJournal(tb testing.TB) []byte {
	tb.Helper()
	o := Options{Seed: 42, Scale: 0.02, Apps: []stamp.App{stamp.Intruder}, Processors: []int{2, 4}}
	path := filepath.Join(tb.TempDir(), "journal.jsonl")
	s := NewSession(o)
	defer s.Close()
	if err := s.SetCheckpoint(path); err != nil {
		tb.Fatal(err)
	}
	if _, err := s.RunCells(context.Background(), o.Cells()); err != nil {
		tb.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// TestJournalSkipsRecordsFailingValidate: a journal line whose residency
// does not partition its run's cycles is skipped like a corrupt line, by
// the journal reader and by checkpoint replay alike, while the journal's
// other record survives.
func TestJournalSkipsRecordsFailingValidate(t *testing.T) {
	lines := strings.Split(strings.TrimRight(string(twoCellJournal(t)), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("journal has %d lines, want a header and two records", len(lines))
	}
	var hdr checkpointHeader
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*CellRecord)
	}{
		{"row sums to Cycles+1", func(r *CellRecord) { r.Gated.Residency[0][stats.StateRun]++ }},
		{"negative entry", func(r *CellRecord) {
			r.Ungated.Residency[1][stats.StateGated] -= 5
			r.Ungated.Residency[1][stats.StateRun] += 5
		}},
		{"row missing", func(r *CellRecord) { r.Gated.Residency = r.Gated.Residency[1:] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var rec CellRecord
			if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
				t.Fatal(err)
			}
			tc.mutate(&rec)
			bad, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			journal := lines[0] + "\n" + string(bad) + "\n" + lines[2] + "\n"

			recs, err := ReadJournal(strings.NewReader(journal))
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 1 || recs[0].Cell.Key() == rec.Cell.Key() {
				t.Fatalf("journal reader kept %d records, want only the valid one", len(recs))
			}

			path := filepath.Join(t.TempDir(), "journal.jsonl")
			if err := os.WriteFile(path, []byte(journal), 0o644); err != nil {
				t.Fatal(err)
			}
			ck, err := OpenCheckpoint(path, hdr.Campaign)
			if err != nil {
				t.Fatal(err)
			}
			defer ck.Close()
			if _, ok := ck.Lookup(rec.Cell); ok || ck.Len() != 1 {
				t.Fatalf("checkpoint replay restored the bad record (%d on record)", ck.Len())
			}
		})
	}
}

// FuzzReadJournal feeds the journal reader arbitrary bytes, seeded with a
// real two-cell journal. It must never panic, every record it returns must
// pass CellRecord.Validate, and re-pricing those records must not panic
// either.
func FuzzReadJournal(f *testing.F) {
	f.Add(twoCellJournal(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadJournal(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, rec := range recs {
			if err := rec.Validate(); err != nil {
				t.Fatalf("returned record fails validation: %v", err)
			}
		}
		Reprice(recs, nil)
	})
}
