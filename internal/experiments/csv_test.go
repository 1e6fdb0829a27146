package experiments

import (
	"context"
	"encoding/csv"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
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
// own header, and must leave plain writers untouched.
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

	// Empty file: nothing to validate, rows only.
	f = open("empty.csv", "")
	if err := c.AppendCSV(f); err != nil {
		t.Fatalf("AppendCSV refused an empty file: %v", err)
	}
	f.Close()

	// Plain writer (no ReadSeeker): rows only, byte for byte the rows
	// WriteCSV writes under its header.
	var b strings.Builder
	if err := c.AppendCSV(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "app,processors") {
		t.Fatal("plain-writer append emitted a header")
	}
	if _, rows, _ := strings.Cut(own.String(), "\n"); b.String() != rows {
		t.Fatalf("AppendCSV rows differ from WriteCSV's:\n--- WriteCSV rows ---\n%s\n--- AppendCSV ---\n%s", rows, b.String())
	}
}

// TestAppendCSVAcceptsHeaderlessShardFile pins the accumulate-rows
// workflow: a rows-only file (no header) must accept further
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

// checkCSVNumbers renders x and v through every number formatter the CSV
// writer uses and compares each field with fmt.Sprintf's bytes for its
// verb — %d on int, int64 and uint64, then %.6g, %.3f, %.4f and %.6f —
// where NaN and ±Inf render "NA". The fixed-point helper must also match
// strconv at every precision it accepts.
func checkCSVNumbers(t *testing.T, x uint64, v float64) {
	t.Helper()
	var r csvRow
	r.int(int64(int(x)))
	r.int(int64(x))
	r.uint(x)
	r.num(v, 'g', 6)
	r.num(v, 'f', 3)
	r.num(v, 'f', 4)
	r.num(v, 'f', 6)
	want := []string{fmt.Sprintf("%d", int(x)), fmt.Sprintf("%d", int64(x)), fmt.Sprintf("%d", x)}
	for _, verb := range []string{"%.6g", "%.3f", "%.4f", "%.6f"} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			want = append(want, "NA")
		} else {
			want = append(want, fmt.Sprintf(verb, v))
		}
	}
	verbs := []string{"%d int", "%d int64", "%d uint64", "%.6g", "%.3f", "%.4f", "%.6f"}
	for i, got := range r.strings() {
		if got != want[i] {
			t.Errorf("%s of %d / %v (bits %#x): got %q, want %q", verbs[i], x, v, math.Float64bits(v), got, want[i])
		}
	}
	for prec := range 7 {
		if got, want := string(appendFixed(nil, v, prec)), strconv.FormatFloat(v, 'f', prec, 64); got != want {
			t.Errorf("appendFixed(%v, %d) = %q, want %q", v, prec, got, want)
		}
	}
}

// TestCSVNumbersMatchFmt pins every CSV number format to fmt's bytes on
// the values where a shortcut could slip: exact rounding ties, values
// one shortest digit either side of a tie, carries through 9s, negative
// zero and negatives rounding to zero, the 1e9 fallback bound, extremes
// of each integer type, and NaN/±Inf.
func TestCSVNumbersMatchFmt(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1.5, 2.5, -2.5, 0.125, 0.375, 0.00005, 0.0005, 0.00015,
		0.0000005, 0.0000015, 1.0005, 2.675, 1.2995, 0.9999995, 0.99999949999, 9.9995, 99999.99995,
		-0.0004, -0.00000049, 5e-324, 1e-7, 123.456789, 999999999.9999995, 999999999.99999,
		1e9, -1e9, 1e9 + 0.5, 1e21, 1e22, math.MaxFloat64, -math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	ints := []uint64{0, 1, 7, 1 << 31, 1<<63 - 1, 1 << 63, math.MaxUint64}
	for i, v := range floats {
		checkCSVNumbers(t, ints[i%len(ints)], v)
	}
}

// FuzzCSVNumbers drives checkCSVNumbers with arbitrary integers and
// floats, the floats both as values and as raw bit patterns.
func FuzzCSVNumbers(f *testing.F) {
	for _, v := range []float64{0.125, 2.5, 0.00005, math.Copysign(0, -1), 1e9, 1.2995, math.NaN()} {
		f.Add(math.Float64bits(v), v)
	}
	f.Fuzz(func(t *testing.T, x uint64, v float64) {
		checkCSVNumbers(t, x, v)
		checkCSVNumbers(t, x, math.Float64frombits(x))
	})
}
