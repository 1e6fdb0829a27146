package experiments

import (
	"context"
	"encoding/csv"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteCSV(t *testing.T) {
	c, err := newSession(t, tinyOptions()).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := c.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatalf("output not parseable CSV: %v", err)
	}
	if len(records) != len(c.Outcomes)+1 {
		t.Fatalf("%d records for %d outcomes", len(records), len(c.Outcomes))
	}
	if records[0][0] != "app" || records[0][4] != "speedup" {
		t.Fatalf("header %v", records[0])
	}
	for _, rec := range records[1:] {
		if len(rec) != len(records[0]) {
			t.Fatalf("ragged row %v", rec)
		}
	}
}

// TestAppendCSVValidatesFileHeader pins the append-safety contract: when
// the target can be read back, AppendCSV must refuse a header mismatch
// instead of producing a silently corrupt concatenation, must accept its
// own header, and must leave plain writers (shard buffers) untouched.
func TestAppendCSVValidatesFileHeader(t *testing.T) {
	c, err := newSession(t, tinyOptions()).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	open := func(name, content string) *os.File {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	// Mismatched header: refused, file untouched.
	foreign := "app,processors,bogus\nx,y,z\n"
	f := open("foreign.csv", foreign)
	if err := c.AppendCSV(f); err == nil {
		t.Fatal("AppendCSV accepted a foreign header")
	}
	f.Close()
	raw, err := os.ReadFile(filepath.Join(dir, "foreign.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != foreign {
		t.Fatalf("refused append still modified the file:\n%s", raw)
	}

	// Matching header: rows append to a valid CSV.
	var own strings.Builder
	if err := c.WriteCSV(&own); err != nil {
		t.Fatal(err)
	}
	f = open("own.csv", own.String())
	if err := c.AppendCSV(f); err != nil {
		t.Fatalf("AppendCSV refused its own header: %v", err)
	}
	f.Close()
	raw, err = os.ReadFile(filepath.Join(dir, "own.csv"))
	if err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(strings.NewReader(string(raw))).ReadAll()
	if err != nil {
		t.Fatalf("appended file not parseable CSV: %v", err)
	}
	if want := 1 + 2*len(c.Outcomes); len(records) != want {
		t.Fatalf("%d records after append, want %d", len(records), want)
	}

	// Empty file: nothing to validate, rows only (the shard-N case).
	f = open("empty.csv", "")
	if err := c.AppendCSV(f); err != nil {
		t.Fatalf("AppendCSV refused an empty file: %v", err)
	}
	f.Close()

	// Plain writer (no ReadSeeker): legacy concat behavior preserved.
	var b strings.Builder
	if err := c.AppendCSV(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "app,processors") {
		t.Fatal("plain-writer append emitted a header")
	}
}

// TestAppendCSVAcceptsHeaderlessShardFile pins the accumulate-rows
// workflow: a shard-N file (rows only, no header) must accept further
// appends — only an actual mismatched header row is a refusal.
func TestAppendCSVAcceptsHeaderlessShardFile(t *testing.T) {
	c, err := newSession(t, tinyOptions()).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "shard1.csv")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := c.AppendCSV(f); err != nil {
		t.Fatalf("first rows-only append: %v", err)
	}
	if err := c.AppendCSV(f); err != nil {
		t.Fatalf("append onto a headerless rows file refused: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(strings.NewReader(string(raw))).ReadAll()
	if err != nil {
		t.Fatalf("accumulated file not parseable CSV: %v", err)
	}
	if want := 2 * len(c.Outcomes); len(records) != want {
		t.Fatalf("%d records, want %d", len(records), want)
	}
}
