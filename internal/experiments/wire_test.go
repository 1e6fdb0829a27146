package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// doneSetJournal simulates the scenario matrix's done set at scale 0.02
// into a checkpoint journal, once per test binary, and returns the
// journal's bytes: a header line, then one record line per done case,
// covering every interconnect shape up to the 384-link ring:128.
var doneSetJournal = sync.OnceValues(func() ([]byte, error) {
	dir, err := os.MkdirTemp("", "doneset-journal")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "journal.jsonl")
	o := Options{Seed: 1, Scale: 0.02, Workers: runtime.GOMAXPROCS(0)}
	s := NewSession(o)
	if err := s.SetCheckpoint(path); err != nil {
		s.Close()
		return nil, err
	}
	_, err = s.RunCells(context.Background(), o.ScenarioCells(DoneScenarios()))
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return os.ReadFile(path)
})

// doneSetRecordLines returns the done-set journal's record lines.
func doneSetRecordLines(tb testing.TB) [][]byte {
	tb.Helper()
	raw, err := doneSetJournal()
	if err != nil {
		tb.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
	return lines[1:]
}

// TestDoneSetJournalDecodesCanonically: every line of a freshly written
// done-set journal takes the canonical decoder, which yields
// encoding/json's record, and that record marshals back to the line.
func TestDoneSetJournalDecodesCanonically(t *testing.T) {
	lines := doneSetRecordLines(t)
	if len(lines) != len(DoneScenarios()) {
		t.Fatalf("journal has %d records for %d done cases", len(lines), len(DoneScenarios()))
	}
	for i, line := range lines {
		var got, want CellRecord
		if !got.decodeCanonical(line) {
			t.Fatalf("record line %d fell back to encoding/json:\n%.300s", i, line)
		}
		if err := json.Unmarshal(line, (*plainCellRecord)(&want)); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("record line %d: canonical decode %+v, encoding/json %+v", i, got, want)
		}
		back, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, line) {
			t.Fatalf("record line %d does not marshal back to itself", i)
		}
	}
}

// fillDistinct sets every exported field under v, recursively, to a
// distinct non-zero value: slices get two elements, signed integers
// alternate in sign, and floats cycle through the plain and exponent
// forms json.Marshal writes. It fails on a kind it cannot fill.
func fillDistinct(t *testing.T, v reflect.Value, n *int) {
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			if v.Type().Field(i).IsExported() {
				fillDistinct(t, v.Field(i), n)
			}
		}
		return
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fallthrough
	case reflect.Array:
		for i := range v.Len() {
			fillDistinct(t, v.Index(i), n)
		}
		return
	}
	*n++
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		x := int64(*n)
		if *n%2 == 1 {
			x = -x
		}
		v.SetInt(x)
	case reflect.Uint64:
		v.SetUint(uint64(*n))
	case reflect.Float64:
		v.SetFloat((float64(*n) + 0.1) * [...]float64{1, 1e-9, -1e22}[*n%3])
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Bool:
		v.SetBool(true)
	default:
		t.Fatalf("fillDistinct: teach the canonical decoder and this test the %s field kind", v.Type())
	}
}

// TestCanonicalDecoderCoversEveryField is the drift guard: a record with
// every exported field set, recursively, to a distinct non-zero value
// must take the canonical decoder and come back equal, with and without
// the omitempty keys. A field added to Cell, RunRecord, stats.Counters,
// bus.Stats or power.Comparison without teaching the decoder fails here
// instead of silently falling back to encoding/json.
func TestCanonicalDecoderCoversEveryField(t *testing.T) {
	var full CellRecord
	n := 0
	fillDistinct(t, reflect.ValueOf(&full).Elem(), &n)
	omitted := full
	for _, rr := range []*RunRecord{&omitted.Ungated, &omitted.Gated} {
		rr.TraceName, rr.BankBus = "", nil
	}
	for _, tc := range []struct {
		name    string
		rec     CellRecord
		omitted bool // the omitempty keys are absent from the bytes
	}{{"every field set", full, false}, {"omitempty keys omitted", omitted, true}} {
		t.Run(tc.name, func(t *testing.T) {
			raw, err := json.Marshal(tc.rec)
			if err != nil {
				t.Fatal(err)
			}
			for _, key := range []string{`"trace_name"`, `"bank_bus"`} {
				if bytes.Contains(raw, []byte(key)) == tc.omitted {
					t.Fatalf("key %s present is %v, want %v:\n%s", key, !tc.omitted, tc.omitted, raw)
				}
			}
			var got CellRecord
			if !got.decodeCanonical(raw) {
				t.Fatalf("the canonical decoder refused json.Marshal's bytes:\n%s", raw)
			}
			if !reflect.DeepEqual(got, tc.rec) {
				t.Fatalf("canonical decode lost a field:\n got %+v\nwant %+v", got, tc.rec)
			}
		})
	}
}

// FuzzCellRecordJSON holds CellRecord.UnmarshalJSON to encoding/json,
// its reference: for any input, decoding into a zero record through the
// method and through encoding/json on the method-less type must both
// fail or yield equal records, and neither may panic. The seeds are real
// journal lines — a single-bus cell that gated and a one-processor cell
// that could not, the banks=4 bus, the 384-link ring:128 — plus lines
// without the omitempty keys, with an escaped string and with
// whitespace.
func FuzzCellRecordJSON(f *testing.F) {
	lines := doneSetRecordLines(f)
	pick := func(want func(CellRecord) bool) CellRecord {
		for _, line := range lines {
			var rec CellRecord
			if err := json.Unmarshal(line, (*plainCellRecord)(&rec)); err != nil {
				f.Fatal(err)
			}
			if want(rec) {
				f.Add(line)
				return rec
			}
		}
		f.Fatal("no done-set record matches a seed's predicate")
		return CellRecord{}
	}
	busRec := pick(func(r CellRecord) bool {
		return r.Cell.Topology == "" && r.Cell.Banks == 0 && r.Gated.Counters.Gatings > 0
	})
	pick(func(r CellRecord) bool { return r.Cell.Processors == 1 && r.Gated.Counters.Gatings == 0 })
	pick(func(r CellRecord) bool { return r.Cell.Banks == 4 })
	pick(func(r CellRecord) bool { return r.Cell.Topology == "ring" && len(r.Gated.BankBus) == 384 })

	bare := busRec
	for _, rr := range []*RunRecord{&bare.Ungated, &bare.Gated} {
		rr.TraceName, rr.BankBus = "", nil
	}
	escaped := busRec
	escaped.Cell.ID = `M<1> "quoted" \ é`
	for _, rec := range []CellRecord{bare, escaped} {
		raw, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	spaced, err := json.MarshalIndent(busRec, "", " ")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(spaced)

	f.Fuzz(func(t *testing.T, data []byte) {
		var got, want CellRecord
		gotErr := got.UnmarshalJSON(data)
		wantErr := json.Unmarshal(data, (*plainCellRecord)(&want))
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("UnmarshalJSON error %v, encoding/json error %v", gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("UnmarshalJSON %+v, encoding/json %+v", got, want)
		}
	})
}
