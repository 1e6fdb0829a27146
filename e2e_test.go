// End-to-end scenario-matrix harness. docs/E2E.md is the case table;
// this file executes it: the committed doc must match the generator
// byte-for-byte, and every case the table marks "done" runs here (at
// reduced scale) through the public campaign API on a parallel worker
// pool. A case cannot be listed as done without being executed, and the
// doc cannot drift from the matrix that generated it.
package clockgate

import (
	"context"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// e2eScale shrinks every scenario's workload so the full done-set runs
// in seconds.
const e2eScale = 0.02

// readE2EDoc loads the committed case table.
func readE2EDoc(t *testing.T) string {
	t.Helper()
	raw, err := os.ReadFile("docs/E2E.md")
	if err != nil {
		t.Fatalf("docs/E2E.md missing: %v (regenerate with `go run ./cmd/experiments -e2e-doc > docs/E2E.md`)", err)
	}
	return string(raw)
}

// parseDocCases extracts (case id, status) pairs from the markdown table.
func parseDocCases(t *testing.T, doc string) map[string]string {
	t.Helper()
	cases := map[string]string{}
	for _, line := range strings.Split(doc, "\n") {
		if !strings.HasPrefix(line, "| M") {
			continue
		}
		cols := strings.Split(line, "|")
		// cols[0] is empty, then: case id, category, title, check point,
		// priority, status.
		if len(cols) < 7 {
			t.Fatalf("malformed case row: %q", line)
		}
		id := strings.TrimSpace(cols[1])
		status := strings.TrimSpace(cols[6])
		cases[id] = status
	}
	if len(cases) == 0 {
		t.Fatal("no case rows found in docs/E2E.md")
	}
	return cases
}

// TestE2EDocMatchesGenerator pins docs/E2E.md to the scenario matrix:
// any change to either without the other fails here.
func TestE2EDocMatchesGenerator(t *testing.T) {
	got := readE2EDoc(t)
	want := experiments.E2EDoc()
	if got != want {
		t.Fatalf("docs/E2E.md is stale; regenerate with `go run ./cmd/experiments -e2e-doc > docs/E2E.md`")
	}
}

// TestE2EDocCoversMatrix checks every scenario appears in the doc exactly
// once with the status the matrix reports, and vice versa.
func TestE2EDocCoversMatrix(t *testing.T) {
	cases := parseDocCases(t, readE2EDoc(t))
	matrix := ScenarioMatrix()
	if len(cases) != len(matrix) {
		t.Fatalf("doc lists %d cases, matrix has %d", len(cases), len(matrix))
	}
	for _, s := range matrix {
		status, ok := cases[s.ID]
		if !ok {
			t.Errorf("scenario %s missing from docs/E2E.md", s.ID)
			continue
		}
		if status != s.Status() {
			t.Errorf("%s: doc status %q, matrix says %q", s.ID, status, s.Status())
		}
	}
}

// TestE2EScenarios executes every done case id from docs/E2E.md as one
// streamed session campaign — results collected in completion order,
// reordered into canonical order by CellResult.Pos — and asserts each
// case's check point, table-driven by the doc itself. Streaming the
// harness (instead of batching) exercises the engine's central guarantee
// on every CI run: a reordered stream is the batch result.
func TestE2EScenarios(t *testing.T) {
	cases := parseDocCases(t, readE2EDoc(t))
	var scenarios []Scenario
	for _, s := range ScenarioMatrix() {
		if cases[s.ID] == "done" {
			scenarios = append(scenarios, s)
		}
	}
	if len(scenarios) == 0 {
		t.Fatal("docs/E2E.md marks no case as done")
	}

	opts := DefaultCampaignOptions()
	opts.Scale = e2eScale
	opts.Workers = runtime.GOMAXPROCS(0)
	session := NewSession(opts)
	defer session.Close()

	cells := make([]Cell, len(scenarios))
	for i, s := range scenarios {
		cells[i] = s.Cell(i, opts.Seed)
	}
	outcomes := make([]*Outcome, len(cells))
	delivered := 0
	for res, err := range session.Stream(context.Background(), cells) {
		if err != nil {
			t.Fatalf("cell %s: %v", res.Cell.Label(), err)
		}
		if outcomes[res.Pos] != nil {
			t.Fatalf("cell %d delivered twice", res.Pos)
		}
		outcomes[res.Pos] = res.Outcome
		delivered++
	}
	if delivered != len(scenarios) {
		t.Fatalf("%d outcomes for %d scenarios", delivered, len(scenarios))
	}

	for i, s := range scenarios {
		out := outcomes[i]
		t.Run(s.ID, func(t *testing.T) {
			cmp := out.Comparison
			if cmp.N1 <= 0 || cmp.N2 <= 0 {
				t.Errorf("%s: non-positive cycles N1=%d N2=%d", s.Name(), cmp.N1, cmp.N2)
			}
			if !(cmp.Eug > 0) || !(cmp.Eg > 0) {
				t.Errorf("%s: non-positive energy Eug=%g Eg=%g", s.Name(), cmp.Eug, cmp.Eg)
			}
			for _, v := range []float64{cmp.SpeedUp, cmp.EnergyRatio, cmp.AvgPowerRatio} {
				if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
					t.Errorf("%s: metric not positive/finite: %g", s.Name(), v)
				}
			}
			ug, g := out.Ungated.Counters, out.Gated.Counters
			if g.Commits == 0 {
				t.Errorf("%s: gated run committed nothing", s.Name())
			}
			if s.Processors == 1 && ug.Aborts != 0 {
				t.Errorf("%s: uniprocessor run aborted %d times", s.Name(), ug.Aborts)
			}

			// Gating-counter invariants (the check-point column's
			// "counters" clause), asserted for every executed case:
			// the ungated baseline never gates; renewals require a
			// gated processor; a processor can only wake from a gating
			// it entered; self-aborts happen only after wake-ups; a
			// uniprocessor has no conflicts and so never gates; and
			// both runs commit the same transaction count (the trace
			// always completes).
			if ug.Gatings != 0 {
				t.Errorf("%s: ungated baseline recorded %d gatings", s.Name(), ug.Gatings)
			}
			if g.Gatings == 0 && g.Renewals != 0 {
				t.Errorf("%s: %d renewals without a single gating", s.Name(), g.Renewals)
			}
			if g.Ungates > g.Gatings {
				t.Errorf("%s: %d ungates exceed %d gatings", s.Name(), g.Ungates, g.Gatings)
			}
			if g.SelfAborts > g.Ungates {
				t.Errorf("%s: %d self-aborts exceed %d wake-ups", s.Name(), g.SelfAborts, g.Ungates)
			}
			if s.Processors == 1 && g.Gatings != 0 {
				t.Errorf("%s: uniprocessor gated %d times", s.Name(), g.Gatings)
			}
			if ug.Commits != g.Commits {
				t.Errorf("%s: commit counts diverge: ungated %d, gated %d", s.Name(), ug.Commits, g.Commits)
			}
			// Contention-level sharpening: raised contention on a
			// multiprocessor must actually exercise the gating path.
			if s.Contention == ContentionHigh && s.Processors >= 8 && g.Gatings == 0 {
				t.Errorf("%s: high contention at %dp never gated", s.Name(), s.Processors)
			}
		})
	}

	// No cross-scenario comparisons here: each scenario owns a seed
	// derived from its matrix ordinal, so comparing counters across
	// contention levels would compare different random workloads. The
	// contention knob's behavior is asserted pairwise (shared seed) in
	// internal/experiments' TestContentionShapesAborts.
}

// TestE2ECampaignParityWithPublicAPI cross-checks one scenario against
// the single-experiment API: the campaign engine and clockgate.Run must
// agree on the same workload.
func TestE2ECampaignParityWithPublicAPI(t *testing.T) {
	s, ok := ScenarioByName("intruder/8p/W0=8/base")
	if !ok {
		t.Fatal("canonical scenario missing from matrix")
	}
	opts := DefaultCampaignOptions()
	opts.Scale = e2eScale
	session := NewSession(opts)
	defer session.Close()
	campaign, err := session.RunScenarios(context.Background(), []Scenario{s})
	if err != nil {
		t.Fatal(err)
	}
	cell := campaign.Cells[0]

	spec, err := GenerateTraceScaled(s.App, s.Processors, cell.Seed, e2eScale)
	if err != nil {
		t.Fatal(err)
	}
	single, err := Run(Experiment{
		Trace:      spec,
		Processors: s.Processors,
		W0:         int64(s.W0),
		Seed:       cell.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	n1, n2 := single.Cycles()
	cmp := campaign.Outcomes[0].Comparison
	if int64(cmp.N1) != n1 || int64(cmp.N2) != n2 {
		t.Fatalf("campaign engine and public Run disagree: campaign N1=%d N2=%d, single N1=%d N2=%d",
			cmp.N1, cmp.N2, n1, n2)
	}
}
