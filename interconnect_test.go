// Debugging view for the interconnect rows of the done-set equivalence
// harness (doneset_test.go). The banked bus with one bank and the
// degenerate fabrics must be cycle-identical to the single
// split-transaction bus; when a row diverges, replaying the cell with
// protocol event recorders on both machines localizes the drift to the
// first diverging event's cycle.
package clockgate

import (
	"fmt"
	"testing"
)

// firstDivergingCycle re-executes one done-set cell on the reference's
// interconnect and on the variant's (the two cells differ in nothing
// else), with protocol event recorders attached, and returns a description of the first event where the two
// engines' histories part ways — the debugging entry point for an
// interconnect row's failure.
func firstDivergingCycle(t *testing.T, ref, variant Cell) string {
	t.Helper()
	record := func(c Cell, gated bool) []Event {
		tr, err := GenerateTraceScaled(c.App, c.Processors, c.Seed, e2eScale)
		if err != nil {
			t.Fatalf("trace for %s: %v", c.Label(), err)
		}
		rec := NewEventRecorder()
		_, err = RunSingleWithEvents(Experiment{
			Trace:      tr,
			Processors: c.Processors,
			W0:         int64(c.W0),
			Seed:       c.Seed,
			Configure: func(m *Config) {
				m.Machine.Banks = c.Banks
				m.Machine.Topology = c.Topology
			},
		}, gated, rec)
		if err != nil {
			t.Fatalf("recorded run for %s: %v", c.Label(), err)
		}
		return rec.Events()
	}
	for _, gated := range []bool{false, true} {
		a, b := record(ref, gated), record(variant, gated)
		n := min(len(a), len(b))
		for i := 0; i < n; i++ {
			if a[i] != b[i] {
				return fmt.Sprintf("cycle %d (gated=%v event %d: reference %+v, variant %+v)",
					min(a[i].At, b[i].At), gated, i, a[i], b[i])
			}
		}
		if len(a) != len(b) {
			return fmt.Sprintf("gated=%v event counts diverge after cycle %d (%d vs %d events)",
				gated, a[n-1].At, len(a), len(b))
		}
	}
	return "no protocol-event divergence (timing drift outside recorded events)"
}

// TestBankedCellSharesWorkloadWithSingleBus pins the layer the
// interconnect rows ride on: a cell's workload trace is a function of the
// workload axes only, so the differential comparison really does execute
// the identical trace on both interconnects (the trace-cache key ignores
// the machine axes, asserted directly in internal/experiments'
// TestTraceCacheKeyAudit).
func TestBankedCellSharesWorkloadWithSingleBus(t *testing.T) {
	a, err := GenerateTraceScaled(Intruder, 8, 42, e2eScale)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateTraceScaled(Intruder, 8, 42, e2eScale)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumThreads() != b.NumThreads() {
		t.Fatalf("trace generation not deterministic: %d vs %d threads", a.NumThreads(), b.NumThreads())
	}
}
