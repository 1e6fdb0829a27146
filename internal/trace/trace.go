// Package trace records structured protocol events from a simulation run:
// every commit, abort, gating, renewal and wake-up with its cycle stamp
// and participants, and every processor power-state transition (EvState).
// The recorder is optional — runs pay nothing unless one is attached — and
// exists for protocol debugging, for the event-log output of cmd/tccsim,
// for tests that assert on event ordering, and for the per-processor state
// timeline: Segments folds the EvState events into it.
package trace

import (
	"fmt"
	"io"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Kind discriminates protocol events.
type Kind uint8

// The protocol event kinds.
const (
	// EvTxBegin: a processor starts (or restarts) a transaction attempt.
	EvTxBegin Kind = iota
	// EvCommit: a transaction retired.
	EvCommit
	// EvAbort: an invalidation killed a running transaction.
	EvAbort
	// EvValidationAbort: the commit-time validation phase failed.
	EvValidationAbort
	// EvGate: a processor's clocks stopped.
	EvGate
	// EvRenew: a directory extended a gating period.
	EvRenew
	// EvUngate: a directory sent the On command.
	EvUngate
	// EvSelfAbort: a woken processor discarded its frozen transaction.
	EvSelfAbort
	// EvInvalidate: a directory invalidated a sharer's line.
	EvInvalidate
	// EvState: a processor entered a new power state (Event.State).
	EvState
)

func (k Kind) String() string {
	switch k {
	case EvTxBegin:
		return "tx-begin"
	case EvCommit:
		return "commit"
	case EvAbort:
		return "abort"
	case EvValidationAbort:
		return "validation-abort"
	case EvGate:
		return "gate"
	case EvRenew:
		return "renew"
	case EvUngate:
		return "ungate"
	case EvSelfAbort:
		return "self-abort"
	case EvInvalidate:
		return "invalidate"
	case EvState:
		return "state"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one recorded protocol event. Fields not meaningful for a kind
// are zero: Other is the peer processor (aborter / committer), Dir the
// directory involved, Line the cache line, TxPC the static transaction,
// State the power state an EvState enters.
type Event struct {
	At    sim.Time
	Kind  Kind
	State stats.State
	Proc  int
	Other int
	Dir   int
	Line  mem.LineAddr
	TxPC  uint64
}

// String renders one event as a log line.
func (e Event) String() string {
	switch e.Kind {
	case EvTxBegin, EvCommit, EvSelfAbort:
		return fmt.Sprintf("%10d %-16s proc=%d pc=0x%x", e.At, e.Kind, e.Proc, e.TxPC)
	case EvAbort:
		return fmt.Sprintf("%10d %-16s proc=%d by=%d dir=%d line=%d", e.At, e.Kind, e.Proc, e.Other, e.Dir, e.Line)
	case EvValidationAbort:
		return fmt.Sprintf("%10d %-16s proc=%d pc=0x%x", e.At, e.Kind, e.Proc, e.TxPC)
	case EvGate, EvUngate, EvRenew:
		return fmt.Sprintf("%10d %-16s proc=%d dir=%d aborter=%d", e.At, e.Kind, e.Proc, e.Dir, e.Other)
	case EvInvalidate:
		return fmt.Sprintf("%10d %-16s proc=%d by=%d dir=%d line=%d", e.At, e.Kind, e.Proc, e.Other, e.Dir, e.Line)
	case EvState:
		return fmt.Sprintf("%10d %-16s proc=%d state=%s", e.At, e.Kind, e.Proc, e.State)
	default:
		return fmt.Sprintf("%10d %-16s proc=%d", e.At, e.Kind, e.Proc)
	}
}

// Recorder accumulates events in order. The zero value records
// everything; use Filter to restrict kinds. A nil *Recorder is valid and
// records nothing, so call sites need no guards.
type Recorder struct {
	events []Event
	filter map[Kind]bool // nil = record all
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Filter restricts recording to the given kinds.
func (r *Recorder) Filter(kinds ...Kind) *Recorder {
	r.filter = make(map[Kind]bool, len(kinds))
	for _, k := range kinds {
		r.filter[k] = true
	}
	return r
}

// Record appends an event, honoring the filter. Nil-safe.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	if r.filter != nil && !r.filter[e.Kind] {
		return
	}
	r.events = append(r.events, e)
}

// Events returns the recorded events in order. The slice is owned by the
// recorder.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}

// CountByKind tallies events per kind.
func (r *Recorder) CountByKind() map[Kind]int {
	out := make(map[Kind]int)
	if r == nil {
		return out
	}
	for _, e := range r.events {
		out[e.Kind]++
	}
	return out
}

// OfProc returns the events involving processor p (as subject).
func (r *Recorder) OfProc(p int) []Event {
	var out []Event
	if r == nil {
		return out
	}
	for _, e := range r.events {
		if e.Proc == p {
			out = append(out, e)
		}
	}
	return out
}

// Dump writes one line per event.
func (r *Recorder) Dump(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, e := range r.events {
		if _, err := fmt.Fprintln(w, e.String()); err != nil {
			return err
		}
	}
	return nil
}

// Segments folds the EvState events among events into each of procs
// processors' residency timeline over [0, end), by the ledger's rules:
// every processor starts in StateRun at time 0, a transition into the
// current state is skipped, a zero-length segment is dropped, and the
// open segment closes at end. Other kinds are ignored, so a recorder's
// whole stream can be passed as is.
func Segments(events []Event, procs int, end sim.Time) [][]stats.Segment {
	segs := make([][]stats.Segment, procs)
	cur := make([]stats.State, procs)
	since := make([]sim.Time, procs)
	add := func(p int, to sim.Time) {
		if to > since[p] {
			segs[p] = append(segs[p], stats.Segment{State: cur[p], From: since[p], To: to})
		}
	}
	for _, e := range events {
		if e.Kind != EvState || e.State == cur[e.Proc] {
			continue
		}
		add(e.Proc, e.At)
		cur[e.Proc], since[e.Proc] = e.State, e.At
	}
	for p := range segs {
		add(p, end)
	}
	return segs
}
