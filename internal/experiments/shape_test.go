package experiments

import (
	"context"
	"testing"

	"repro/internal/stamp"
)

// TestShapeRegression guards the paper's qualitative claims at a reduced
// workload scale: the mechanism must keep winning in the places the paper
// says it wins. If a simulator or workload change breaks one of these,
// the reproduction has regressed even if every unit test passes.
func TestShapeRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second campaign; skipped with -short")
	}
	o := Options{Seed: 42, Scale: 0.25}
	c, err := newSession(t, o).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	byConfig := map[string]float64{} // energy ratio per app/np
	speedups := map[string]float64{}
	for _, out := range c.Outcomes {
		key := string(out.Spec.App)
		if out.Spec.Processors == 16 {
			byConfig[key] = out.Comparison.EnergyRatio
			speedups[key] = out.Comparison.SpeedUp
		}
	}

	// Claim 1: at 16 cores, gating saves energy for every paper app.
	for _, app := range stamp.PaperApps() {
		if r := byConfig[string(app)]; r <= 1.0 {
			t.Errorf("%s/16p energy ratio %.3f: gating did not save energy", app, r)
		}
	}

	// Claim 2: the high-conflict app (intruder) saves the most energy at
	// 16 cores.
	if byConfig["intruder"] < byConfig["genome"] || byConfig["intruder"] < byConfig["yada"] {
		t.Errorf("intruder (%.3f) is not the biggest saver (genome %.3f, yada %.3f)",
			byConfig["intruder"], byConfig["genome"], byConfig["yada"])
	}

	// Claim 3: the campaign average shows both a speed-up and an energy
	// reduction.
	s := c.Summarize()
	if s.AvgSpeedUp <= 1.0 {
		t.Errorf("average speed-up %.3f: gating slowed the machine down", s.AvgSpeedUp)
	}
	if s.AvgEnergyReduction <= 0 {
		t.Errorf("average energy reduction %.3f%%: no savings", s.AvgEnergyReduction*100)
	}

	// Claim 4: slowdowns are the exception, not the rule (paper: 1 of 9).
	if s.Slowdowns > 3 {
		t.Errorf("%d of %d configurations slowed down", s.Slowdowns, len(c.Outcomes))
	}

	// Claim 5: gating-aware CM removes a substantial share of aborts.
	for _, out := range c.Outcomes {
		ug, g := out.Ungated.Counters.Aborts, out.Gated.Counters.Aborts
		if out.Spec.Processors == 16 && g >= ug {
			t.Errorf("%s/16p: aborts did not drop (%d -> %d)", out.Spec.App, ug, g)
		}
	}
}
