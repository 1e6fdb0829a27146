package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/stamp"
)

func tinyOptions() Options {
	return Options{Seed: 42, Scale: 0.05, Processors: []int{4}}
}

func TestAblationPolicies(t *testing.T) {
	rows, err := newSession(t, tinyOptions()).AblationPolicies(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d policy rows", len(rows))
	}
	if rows[0].Variant != string(config.PolicyGatingAware) {
		t.Fatalf("first variant %q", rows[0].Variant)
	}
	for _, r := range rows {
		if r.SpeedUp <= 0 || r.EnergyRatio <= 0 {
			t.Fatalf("degenerate row %+v", r)
		}
	}
}

func TestAblationRenewal(t *testing.T) {
	rows, err := newSession(t, tinyOptions()).AblationRenewal(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d renewal rows", len(rows))
	}
	if rows[1].Renewals != 0 {
		t.Fatalf("renewal-off row has %d renewals", rows[1].Renewals)
	}
	if rows[0].Renewals == 0 {
		t.Fatal("renewal-on row recorded no renewals")
	}
}

func TestAblationSRPG(t *testing.T) {
	rows, err := newSession(t, tinyOptions()).AblationSRPG(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d SRPG rows", len(rows))
	}
	// Cheaper gated cycles must never lower the energy ratio.
	for i := 1; i < len(rows); i++ {
		if rows[i].EnergyRatio < rows[i-1].EnergyRatio-1e-9 {
			t.Fatalf("energy ratio decreased as leakage fell: %+v", rows)
		}
		if rows[i].SpeedUp != rows[0].SpeedUp {
			t.Fatal("SRPG re-pricing changed the speed-up")
		}
	}
}

func TestAblationsRender(t *testing.T) {
	out, err := newSession(t, tinyOptions()).Ablations(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"gating-window policy", "renewal mechanism",
		"state-retention", "gating-aware", "exponential"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablations output missing %q", want)
		}
	}
}

func TestExtendedCampaign(t *testing.T) {
	o := tinyOptions()
	o.Apps = []stamp.App{stamp.Bayes, stamp.KMeans, stamp.Labyrinth, stamp.SSCA2, stamp.Vacation}
	c, err := newSession(t, o).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Outcomes) != 5 { // 5 extension apps x 1 processor count
		t.Fatalf("%d outcomes", len(c.Outcomes))
	}
	seen := map[stamp.App]bool{}
	for _, out := range c.Outcomes {
		seen[out.Spec.App] = true
	}
	for _, app := range o.Apps {
		if !seen[app] {
			t.Fatalf("extension app %s missing", app)
		}
	}
}
