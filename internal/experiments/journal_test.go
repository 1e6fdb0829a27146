package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/stamp"
	"repro/internal/stats"
)

// journalOptions is the two-cell campaign (intruder on 2 and 4
// processors) whose journal the journal tests damage and cut. One worker
// writes its records in canonical order.
func journalOptions() Options {
	return Options{Seed: 42, Scale: 0.02, Apps: []stamp.App{stamp.Intruder}, Processors: []int{2, 4}, Workers: 1}
}

// runJournaled runs o's campaign with a checkpoint attached and returns
// its journal and its CSV.
func runJournaled(tb testing.TB, o Options) ([]byte, string) {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "journal.jsonl")
	s := NewSession(o)
	defer s.Close()
	if err := s.SetCheckpoint(path); err != nil {
		tb.Fatal(err)
	}
	c, err := s.Run(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	var b strings.Builder
	if err := c.WriteCSV(&b); err != nil {
		tb.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return raw, b.String()
}

// twoCellJournal returns the journal of journalOptions' campaign.
func twoCellJournal(tb testing.TB) []byte {
	raw, _ := runJournaled(tb, journalOptions())
	return raw
}

// readBoth writes journal to path and reads it with ReadJournalFile, then
// with checkpoint replay under fingerprint, and checks that the two
// agree. Either both fail with one message and replay leaves the file as
// it was, or both count the same records and replay cuts the file at its
// last newline. A journal with no complete first line holds nothing to
// re-price, so ReadJournal fails on it while replay starts the file over
// with a fresh header. readBoth returns ReadJournalFile's records and
// error, and the open checkpoint when replay succeeded.
func readBoth(t *testing.T, path string, journal []byte, fingerprint string) ([]CellRecord, *Checkpoint, error) {
	t.Helper()
	if err := os.WriteFile(path, journal, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadJournalFile(path)
	ck, ckErr := OpenCheckpoint(path, fingerprint)
	want := journal[:bytes.LastIndexByte(journal, '\n')+1]
	switch {
	case len(want) == 0:
		if !errors.Is(err, errNoHeader) || ckErr != nil {
			t.Fatalf("%d bytes without a newline: ReadJournal: %v; replay: %v", len(journal), err, ckErr)
		}
		hdr, herr := json.Marshal(checkpointHeader{Version: checkpointVersion, Campaign: fingerprint})
		if herr != nil {
			t.Fatal(herr)
		}
		want = append(hdr, '\n')
	case ckErr != nil:
		if err == nil || err.Error() != ckErr.Error() {
			t.Fatalf("%d-byte journal: ReadJournal: %v; replay: %v", len(journal), err, ckErr)
		}
		want = journal
	case err != nil:
		t.Fatalf("%d-byte journal: ReadJournal: %v; replay succeeded", len(journal), err)
	default:
		byKey := make(map[string]CellRecord, len(recs))
		for _, rec := range recs {
			byKey[cellKey(rec.Cell)] = rec
		}
		if !reflect.DeepEqual(byKey, ck.done) {
			t.Fatalf("%d-byte journal: ReadJournal counts %d records, replay restores %d, or the records differ",
				len(journal), len(byKey), len(ck.done))
		}
	}
	got, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%d-byte journal: replay left %d bytes, want %d", len(journal), len(got), len(want))
	}
	return recs, ck, err
}

// TestReadJournalRobustness: a corrupt interior line is skipped, a
// duplicated record deduplicates with the last one winning, a foreign
// version fails both readers, and an empty file or a header alone holds
// no records.
func TestReadJournalRobustness(t *testing.T) { checkJournalManglings(t) }

// TestCheckpointToleratesTornTail: a kill mid-write tears the final
// record in half; the intact record survives and the torn cell re-runs.
func TestCheckpointToleratesTornTail(t *testing.T) { checkJournalManglings(t) }

// TestCheckpointTornTailAppendsCleanly: a final record that lacks only
// its newline is torn too, and the next Record must not glue onto it.
func TestCheckpointTornTailAppendsCleanly(t *testing.T) { checkJournalManglings(t) }

// TestJournalSkipsOverlongLine: an interior line longer than
// MaxJournalLine is skipped through its newline, and an over-long
// header fails both readers.
func TestJournalSkipsOverlongLine(t *testing.T) { checkJournalManglings(t) }

// TestJournalSkipsRecordsFailingValidate: a record that decodes but fails
// CellRecord.Validate counts for neither reader.
func TestJournalSkipsRecordsFailingValidate(t *testing.T) { checkJournalManglings(t) }

// journalMangling is one damaged journal: its bytes, the record lines
// that count, and, when both readers must fail, the start of their one
// error, %s standing for the path.
type journalMangling struct {
	name    string
	journal string
	want    []string
	err     string
}

// checkJournalManglings runs the calling test's rows of one table of
// damaged journals, keyed by test name, through both readers. readBoth
// holds ReadJournal and checkpoint replay to the same records and checks
// the file replay leaves; each row names the records that count. The
// next Record after replay must start a fresh line, and a -resume on the
// damaged journal must restore exactly those records and write the
// uninterrupted campaign's CSV. A journal holding both records intact
// must re-price to the clean journal's CSV. A failing row's message must
// name the file once.
func checkJournalManglings(t *testing.T) {
	o := journalOptions()
	journal, live := runJournaled(t, o)
	lines := strings.SplitAfter(string(journal), "\n")
	if len(lines) != 4 || lines[3] != "" {
		t.Fatalf("journal has %d lines, want a header and two records", len(lines)-1)
	}
	h, r1, r2 := lines[0], lines[1], lines[2]
	var first CellRecord
	if err := json.Unmarshal([]byte(r1), &first); err != nil {
		t.Fatal(err)
	}
	mutate := func(line string, f func(*CellRecord)) string {
		t.Helper()
		var rec CellRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		f(&rec)
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		return string(b) + "\n"
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
	clean := filepath.Join(t.TempDir(), "clean.jsonl")
	if err := os.WriteFile(clean, journal, 0o644); err != nil {
		t.Fatal(err)
	}
	cleanCSV := repriced(clean)

	dup := mutate(r1, func(r *CellRecord) { r.Cell.ID = "duplicate" })
	junk := strings.Repeat("x", 2<<20) + "\n"
	v2 := strings.Replace(h, `"version":3`, `"version":2`, 1)
	if v2 == h {
		t.Fatalf("header %q does not carry version 3", h)
	}
	rows := map[string][]journalMangling{
		"TestReadJournalRobustness": {
			{"corrupt interior line", h + r1 + "{not json}\n" + r2, []string{r1, r2}, ""},
			{"duplicated record, last wins", h + r1 + r2 + dup, []string{dup, r2}, ""},
			{"foreign version", v2 + r1 + r2, nil, "experiments: journal %s: version 2, want 3"},
			{"empty file", "", nil, ""},
			{"header alone", h, nil, ""},
		},
		"TestCheckpointToleratesTornTail": {
			{"torn half-record tail", h + r1 + r2[:len(r2)/2], []string{r1}, ""},
		},
		"TestCheckpointTornTailAppendsCleanly": {
			{"record without its newline", h + r1 + r2[:len(r2)-1], []string{r1}, ""},
		},
		"TestJournalSkipsOverlongLine": {
			{"2 MiB interior line", h + r1 + junk + r2, []string{r1, r2}, ""},
			{"2 MiB header", junk + h + r1 + r2, nil, "experiments: journal %s: header corrupt: "},
		},
		"TestJournalSkipsRecordsFailingValidate": {
			{"row sums to Cycles+1", h + mutate(r1, func(r *CellRecord) { r.Gated.Residency[0][stats.StateRun]++ }) + r2, []string{r2}, ""},
			{"negative entry", h + mutate(r1, func(r *CellRecord) {
				r.Ungated.Residency[1][stats.StateGated] -= 5
				r.Ungated.Residency[1][stats.StateRun] += 5
			}) + r2, []string{r2}, ""},
			{"row missing", h + mutate(r1, func(r *CellRecord) { r.Gated.Residency = r.Gated.Residency[1:] }) + r2, []string{r2}, ""},
		},
	}[t.Name()]
	if len(rows) == 0 {
		t.Fatalf("no journal manglings for %s", t.Name())
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "journal.jsonl")
			recs, ck, err := readBoth(t, path, []byte(row.journal), o.Fingerprint())
			if row.err != "" {
				if want := fmt.Sprintf(row.err, path); err == nil || !strings.HasPrefix(err.Error(), want) || strings.Count(err.Error(), path) != 1 {
					t.Fatalf("both readers fail with %q, want it to start %q and name the file once", err, want)
				}
				return
			}
			var got []string
			for i, rec := range recs {
				if i > 0 && recs[i-1].Cell.Index > rec.Cell.Index {
					t.Fatal("journal records not in canonical index order")
				}
				b, err := json.Marshal(rec)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, string(b)+"\n")
			}
			if want := slices.Sorted(slices.Values(row.want)); !slices.Equal(slices.Sorted(slices.Values(got)), want) {
				t.Fatalf("the readers count %d records, want %d", len(got), len(want))
			}

			// The next record starts a fresh line after the cut.
			cut, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := ck.Record(first.Cell, first.Outcome()); err != nil {
				t.Fatal(err)
			}
			if err := ck.Close(); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			tail, _ := bytes.CutPrefix(raw, cut)
			line, _ := bytes.CutSuffix(tail, []byte("\n"))
			if key, _, ok := journalRecord(line); !ok || key != cellKey(first.Cell) || !bytes.HasSuffix(cut, []byte("\n")) {
				t.Fatalf("the next Record appended %q, not one fresh line", tail)
			}

			if err := os.WriteFile(path, []byte(row.journal), 0o644); err != nil {
				t.Fatal(err)
			}
			if slices.Equal(row.want, []string{r1, r2}) {
				if got := repriced(path); got != cleanCSV {
					t.Fatalf("the damaged journal re-prices to:\n%s\nthe clean one to:\n%s", got, cleanCSV)
				}
			}
			s := NewSession(o)
			defer s.Close()
			if err := s.SetCheckpoint(path); err != nil {
				t.Fatal(err)
			}
			c, err := s.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if got := s.Checkpoint().Restored(); got != len(row.want) {
				t.Errorf("-resume restored %d cells, want %d", got, len(row.want))
			}
			var b strings.Builder
			if err := c.WriteCSV(&b); err != nil {
				t.Fatal(err)
			}
			if b.String() != live {
				t.Error("the resumed campaign's CSV differs from the uninterrupted one")
			}
		})
	}
}

// TestJournalEveryTruncation cuts twoCellJournal at every byte. At each
// cut ReadJournal must return exactly the records whose newline lies
// inside the prefix, and fail when the prefix holds no complete first
// line; readBoth holds replay to the same records and checks the file
// it leaves behind.
func TestJournalEveryTruncation(t *testing.T) {
	fingerprint := journalOptions().Fingerprint()
	journal := twoCellJournal(t)
	var keys []string // each record's key, in journal order
	for _, line := range bytes.SplitAfter(journal, []byte("\n"))[1:] {
		if key, _, ok := journalRecord(bytes.TrimSuffix(line, []byte("\n"))); ok {
			keys = append(keys, key)
		}
	}
	if len(keys) != 2 {
		t.Fatalf("journal holds %d records, want 2", len(keys))
	}
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	for n := 0; n <= len(journal); n++ {
		recs, ck, _ := readBoth(t, path, journal[:n], fingerprint)
		if ck != nil {
			ck.Close()
		}
		complete := max(bytes.Count(journal[:n], []byte("\n"))-1, 0)
		var got []string
		for _, rec := range recs {
			got = append(got, cellKey(rec.Cell))
		}
		if !slices.Equal(got, keys[:complete]) {
			t.Fatalf("%d-byte prefix: ReadJournal returns %d records, want the %d whose newline it holds", n, len(got), complete)
		}
	}
}

// TestResumeAtEveryLineBoundary cuts a small campaign's journal at each
// line boundary and one byte either side of it, and resumes the campaign
// on the cut. The resume must restore exactly the complete records,
// write the uninterrupted run's CSV, and leave the journal of the
// uninterrupted run: the header and one record per cell.
func TestResumeAtEveryLineBoundary(t *testing.T) {
	o := journalOptions()
	journal, live := runJournaled(t, o)
	cuts := []int{0, 1}
	for i, b := range journal {
		if b == '\n' {
			cuts = append(cuts, i, i+1, i+2)
		}
	}
	cuts = slices.Compact(cuts)
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	for _, n := range cuts {
		if n > len(journal) {
			continue
		}
		if err := os.WriteFile(path, journal[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		s := NewSession(o)
		if err := s.SetCheckpoint(path); err != nil {
			t.Fatal(err)
		}
		c, err := s.Run(context.Background())
		restored := s.Checkpoint().Restored()
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		if complete := max(bytes.Count(journal[:n], []byte("\n"))-1, 0); restored != complete {
			t.Errorf("%d-byte cut: resume restored %d cells, want %d", n, restored, complete)
		}
		var b strings.Builder
		if err := c.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		if b.String() != live {
			t.Errorf("%d-byte cut: the resumed CSV differs from the uninterrupted one", n)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, journal) {
			t.Errorf("%d-byte cut: the resumed journal (%d bytes) is not the uninterrupted one (%d)", n, len(raw), len(journal))
		}
	}
}

// FuzzReadJournal feeds the journal readers arbitrary bytes, seeded with
// a real two-cell journal and the same journal without its last byte.
// ReadJournal must never panic, every record it returns must pass
// CellRecord.Validate, and re-pricing those records must not panic
// either. Written to a file and replayed under its header's fingerprint,
// the input must restore the records ReadJournal counts (readBoth).
func FuzzReadJournal(f *testing.F) {
	journal := twoCellJournal(f)
	f.Add(journal)
	f.Add(journal[:len(journal)-1])
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadJournal(bytes.NewReader(data))
		if err == nil {
			for _, rec := range recs {
				if err := rec.Validate(); err != nil {
					t.Fatalf("returned record fails validation: %v", err)
				}
			}
			Reprice(recs, nil)
		}
		// A first line that does not parse fails both readers alike.
		var hdr checkpointHeader
		first, _, _ := bytes.Cut(data, []byte("\n"))
		json.Unmarshal(first, &hdr)
		if _, ck, _ := readBoth(t, filepath.Join(t.TempDir(), "journal.jsonl"), data, hdr.Campaign); ck != nil {
			ck.Close()
		}
	})
}
