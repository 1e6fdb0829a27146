package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestWorkloadsToySize runs every workload untraced and traced at a toy
// trace scale and checks that each metric BENCHMARK.json names is
// emitted with its unit and that no cell failed. A failed cell includes
// a traced round that differs from the untraced one.
func TestWorkloadsToySize(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var bf struct {
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{
				seed:      7,
				seconds:   time.Millisecond,
				trace:     traced,
				toy:       true,
				setupReps: 1,
				goldenDir: t.TempDir(),
				dir:       t.TempDir(),
				traceDir:  t.TempDir(),
			}
			rep, err := run(context.Background(), w, cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rep.res.Correct || rep.res.Failed != 0 || rep.res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d of %d: %v", w.name, traced,
					rep.res.Correct, rep.res.Failed, rep.res.Attempted, rep.notes)
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			if len(rep.res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", w.name, traced, len(rep.res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", w.name, traced, m.Name, got, m.Unit)
				}
			}
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) is
	// [2.75, 5.5, 8.25].
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 102, 103, 104}
	for _, tc := range []struct {
		next []float64
		want string
	}{
		{[]float64{100, 101, 102, 103, 104}, "same"},
		{[]float64{120, 121, 122, 123, 124}, "worse"},
		{[]float64{80, 81, 82, 83, 84}, "better"},
	} {
		if got, _, _ := verdict(base, tc.next, true, 0.1, 0); got != tc.want {
			t.Errorf("verdict(%v) = %s, want %s", tc.next, got, tc.want)
		}
	}
	noisy := []float64{50, 100, 150, 200, 250}
	if got, _, _ := verdict(noisy, []float64{260, 270, 280, 290, 300}, false, 0.1, 0); got != "better" {
		t.Errorf("every new sample beats every noisy base sample: got %s, want better", got)
	}
	if got, _, _ := verdict(noisy, []float64{100, 110, 120, 130, 140}, false, 0.1, 0); got != "unresolved" {
		t.Errorf("noisy base: got %s, want unresolved", got)
	}
}

func TestParseTop(t *testing.T) {
	out := `Type: cpu
      flat  flat%   sum%        cum   cum%
     880ms 44.00% 44.00%     9440ms 95.84%  repro/internal/sim.(*Engine).fireNext
     520ms 26.00% 70.00%      810ms  8.22%  repro/internal/cache.(*Cache).find (inline)
     400ms 20.00% 90.00%      750ms  7.61%  internal/runtime/maps.(*Iter).Next
     200ms 10.00% 100.0%      200ms  2.03%  slices.pdqsortCmpFunc[go.shape.struct { p *repro/internal/tcc.Processor }]
`
	got, err := parseTop(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sim": 0.44, "cache": 0.26, "runtime": 0.2, "other": 0.1, "samples": 200}
	for k, v := range want {
		if d := got[k] - v; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
}
