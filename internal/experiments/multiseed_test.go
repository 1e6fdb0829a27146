package experiments

import (
	"context"
	"math"
	"strings"
	"testing"
)

func TestNewSeedStats(t *testing.T) {
	s := newSeedStats([]float64{1, 2, 3})
	if s.Mean != 2 || s.Min != 1 || s.Max != 3 {
		t.Fatalf("stats %+v", s)
	}
	want := math.Sqrt(2.0 / 3.0)
	if math.Abs(s.StdDev-want) > 1e-12 {
		t.Fatalf("stddev %f, want %f", s.StdDev, want)
	}
	if z := newSeedStats(nil); z.Mean != 0 || z.StdDev != 0 {
		t.Fatalf("empty stats %+v", z)
	}
}

func TestMultiSeed(t *testing.T) {
	o := tinyOptions()
	o.Apps = nil // default three apps at tiny scale
	ms, err := newSession(t, o).MultiSeed(context.Background(), []uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms.Seeds) != 3 || len(ms.Slowdowns) != 3 {
		t.Fatalf("summary %+v", ms)
	}
	if ms.SpeedUp.Mean <= 0 {
		t.Fatalf("speed-up mean %f", ms.SpeedUp.Mean)
	}
	if ms.SpeedUp.Min > ms.SpeedUp.Mean || ms.SpeedUp.Max < ms.SpeedUp.Mean {
		t.Fatal("min/max do not bracket the mean")
	}
	out := ms.Render()
	for _, want := range []string{"across 3 seeds", "avg speed-up", "avg energy reduction", "stddev"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestMultiSeedNeedsSeeds(t *testing.T) {
	if _, err := newSession(t, tinyOptions()).MultiSeed(context.Background(), nil); err == nil {
		t.Fatal("empty seed list accepted")
	}
}
