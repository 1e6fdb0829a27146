// Package stats totals per-processor state residency over simulated time
// and aggregates protocol event counters. The residency ledger is the raw
// material of the paper's energy model (§IV): every equation there is a
// function of how long each processor spent running, stalled on a miss,
// committing, or clock-gated, so the ledger keeps exactly those totals.
package stats

import (
	"fmt"
	"slices"

	"repro/internal/sim"
)

// State is a processor power state. The set mirrors the paper's power
// model (Table I): Run covers normal execution and all spinning (the paper
// assumes spin-locks burn full run power), Miss covers L1 miss service,
// Commit covers write-set commit, and Gated covers the clock-gated state.
type State uint8

const (
	// StateRun is normal execution, commit-spin, and barrier-spin.
	StateRun State = iota
	// StateMiss is stalled on an L1 miss.
	StateMiss
	// StateCommit is actively committing the write-set.
	StateCommit
	// StateGated is clock-gated after an abort.
	StateGated
	// NumStates is the number of power states.
	NumStates = 4
)

func (s State) String() string {
	switch s {
	case StateRun:
		return "run"
	case StateMiss:
		return "miss"
	case StateCommit:
		return "commit"
	case StateGated:
		return "gated"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Segment is one residency interval of one processor: an entry of the
// per-transition timeline trace.Segments folds from recorded state events.
type Segment struct {
	State    State
	From, To sim.Time
}

// Ledger accumulates every processor's per-state residency over a run. It
// keeps each processor's current state, the time it entered that state
// and the per-state totals, so a closed ledger is the whole-run residency
// the energy model prices. The per-transition timeline is not kept here;
// a run records it on request as trace.EvState events.
type Ledger struct {
	current []State
	since   []sim.Time
	totals  [][NumStates]sim.Time
	closed  bool
	endTime sim.Time
}

// NewLedger creates a ledger for procs processors, all beginning in
// StateRun at time 0.
func NewLedger(procs int) *Ledger {
	return &Ledger{
		current: make([]State, procs),
		since:   make([]sim.Time, procs),
		totals:  make([][NumStates]sim.Time, procs),
	}
}

// Transition moves processor p into state s at time now. A transition into
// the current state is a no-op. Transitioning a closed ledger or going
// backwards in time panics.
func (l *Ledger) Transition(p int, s State, now sim.Time) {
	if l.closed {
		panic("stats: transition on closed ledger")
	}
	if now < l.since[p] {
		panic(fmt.Sprintf("stats: transition backwards in time for proc %d: %d < %d", p, now, l.since[p]))
	}
	if s == l.current[p] {
		return
	}
	l.totals[p][l.current[p]] += now - l.since[p]
	l.current[p] = s
	l.since[p] = now
}

// CurrentState returns processor p's current state.
func (l *Ledger) CurrentState(p int) State { return l.current[p] }

// Close finalizes the ledger at time end, adding every processor's open
// interval to its totals. After Close the ledger is immutable.
func (l *Ledger) Close(end sim.Time) {
	if l.closed {
		return
	}
	for p := range l.totals {
		if end > l.since[p] {
			l.totals[p][l.current[p]] += end - l.since[p]
		}
	}
	l.closed = true
	l.endTime = end
}

// End returns the close time.
func (l *Ledger) End() sim.Time { return l.endTime }

// ResidencyTotals returns each processor's per-state residency over the
// whole run [0, End()) — the aggregate every energy computation reduces a
// run to. Only valid after Close; the returned slice must not be
// modified.
func (l *Ledger) ResidencyTotals() [][NumStates]sim.Time {
	if !l.closed {
		panic("stats: ResidencyTotals before Close")
	}
	return l.totals
}

// TotalResidency sums ResidencyTotals over processors.
func (l *Ledger) TotalResidency() [NumStates]sim.Time {
	var tot [NumStates]sim.Time
	for _, r := range l.ResidencyTotals() {
		for s := 0; s < NumStates; s++ {
			tot[s] += r[s]
		}
	}
	return tot
}

// RestoreLedger rebuilds a closed ledger from per-processor residency
// totals and the close time, for replaying persisted results. The totals
// are all a ledger keeps, so the restored ledger equals the original.
func RestoreLedger(perProc [][NumStates]sim.Time, end sim.Time) *Ledger {
	return &Ledger{totals: slices.Clone(perProc), closed: true, endTime: end}
}

// Counters aggregates protocol events for one run.
type Counters struct {
	Commits          uint64 // transactions committed
	Aborts           uint64 // directory-initiated aborts (invalidation hits read-set)
	ValidationAborts uint64 // aborts taken at the commit validation phase
	SelfAborts       uint64 // self-aborts after wake-up from gating
	Gatings          uint64 // StopClock deliveries that actually gated a running processor
	Renewals         uint64 // gating-period renewals
	Ungates          uint64 // On commands delivered
	TxInfoRequests   uint64 // TxInfoReq messages
	TokenRequests    uint64 // TID acquisitions
	Invalidations    uint64 // invalidation messages sent by directories
	Overflows        uint64 // speculative-overflow serializations
}

// AbortRate returns aborts per committed transaction.
func (c *Counters) AbortRate() float64 {
	if c.Commits == 0 {
		return 0
	}
	return float64(c.Aborts) / float64(c.Commits)
}
