package trace

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Record(Event{Kind: EvCommit})
	if r.Len() != 0 || r.Events() != nil {
		t.Fatal("nil recorder retained something")
	}
	if len(r.CountByKind()) != 0 || r.OfProc(0) != nil {
		t.Fatal("nil recorder queries not empty")
	}
	if err := r.Dump(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

func TestRecordAndQuery(t *testing.T) {
	r := NewRecorder()
	r.Record(Event{At: 1, Kind: EvTxBegin, Proc: 0, TxPC: 0x40})
	r.Record(Event{At: 5, Kind: EvAbort, Proc: 0, Other: 1, Dir: 2, Line: 7})
	r.Record(Event{At: 9, Kind: EvCommit, Proc: 1, TxPC: 0x41})
	if r.Len() != 3 {
		t.Fatalf("len %d", r.Len())
	}
	counts := r.CountByKind()
	if counts[EvTxBegin] != 1 || counts[EvAbort] != 1 || counts[EvCommit] != 1 {
		t.Fatalf("counts %v", counts)
	}
	p0 := r.OfProc(0)
	if len(p0) != 2 {
		t.Fatalf("proc 0 events %v", p0)
	}
}

func TestFilter(t *testing.T) {
	r := NewRecorder().Filter(EvGate, EvUngate)
	r.Record(Event{Kind: EvCommit})
	r.Record(Event{Kind: EvGate})
	r.Record(Event{Kind: EvUngate})
	if r.Len() != 2 {
		t.Fatalf("filter kept %d events", r.Len())
	}
}

func TestEventStrings(t *testing.T) {
	events := []Event{
		{At: 1, Kind: EvTxBegin, Proc: 2, TxPC: 0x40},
		{At: 2, Kind: EvCommit, Proc: 2, TxPC: 0x40},
		{At: 3, Kind: EvAbort, Proc: 2, Other: 1, Dir: 0, Line: 9},
		{At: 4, Kind: EvValidationAbort, Proc: 2, TxPC: 0x40},
		{At: 5, Kind: EvGate, Proc: 2, Dir: 0, Other: 1},
		{At: 6, Kind: EvRenew, Proc: 2, Dir: 0, Other: 1},
		{At: 7, Kind: EvUngate, Proc: 2, Dir: 0, Other: 1},
		{At: 8, Kind: EvSelfAbort, Proc: 2, TxPC: 0x40},
		{At: 9, Kind: EvInvalidate, Proc: 2, Other: 1, Dir: 0, Line: 9},
		{At: 10, Kind: EvState, Proc: 2, State: stats.StateGated},
	}
	for _, e := range events {
		s := e.String()
		if !strings.Contains(s, e.Kind.String()) {
			t.Errorf("event string %q missing kind %q", s, e.Kind)
		}
		if !strings.Contains(s, "proc=2") {
			t.Errorf("event string %q missing proc", s)
		}
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []Kind{EvTxBegin, EvCommit, EvAbort, EvValidationAbort,
		EvGate, EvRenew, EvUngate, EvSelfAbort, EvInvalidate, EvState}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("kind %d has bad/duplicate string %q", k, s)
		}
		seen[s] = true
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind empty")
	}
}

func TestDump(t *testing.T) {
	r := NewRecorder()
	r.Record(Event{At: 1, Kind: EvCommit, Proc: 0})
	r.Record(Event{At: 2, Kind: EvGate, Proc: 1})
	var b strings.Builder
	if err := r.Dump(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("dump produced %d lines", len(lines))
	}
}

// TestSegmentsFoldRules pins the fold's ledger rules: every processor
// starts running at 0, a same-state transition is skipped, a zero-length
// segment is dropped, other kinds are ignored, and the open segment
// closes at end (a processor with no events runs throughout).
func TestSegmentsFoldRules(t *testing.T) {
	st := func(at sim.Time, p int, s stats.State) Event {
		return Event{At: at, Kind: EvState, Proc: p, State: s}
	}
	events := []Event{
		st(0, 0, stats.StateRun), // same state at 0: skipped
		st(10, 0, stats.StateMiss),
		{At: 12, Kind: EvCommit, Proc: 0},
		st(15, 0, stats.StateMiss), // same state: skipped
		st(20, 0, stats.StateCommit),
		st(20, 0, stats.StateRun), // zero-length commit: dropped
		st(30, 1, stats.StateGated),
	}
	want := [][]stats.Segment{
		{{State: stats.StateRun, From: 0, To: 10}, {State: stats.StateMiss, From: 10, To: 20}, {State: stats.StateRun, From: 20, To: 40}},
		{{State: stats.StateRun, From: 0, To: 30}, {State: stats.StateGated, From: 30, To: 40}},
		{{State: stats.StateRun, From: 0, To: 40}},
	}
	if got := Segments(events, 3, 40); !reflect.DeepEqual(got, want) {
		t.Fatalf("segments\n%+v\nwant\n%+v", got, want)
	}
}
