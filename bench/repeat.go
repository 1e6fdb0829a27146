package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// repeatFile is what -repeat writes and -diff reads: every run's
// end-to-end metrics by workload, under the conditions they were taken in.
type repeatFile struct {
	Conditions map[string]string               `json:"conditions"`
	Runs       map[string]map[string][]float64 `json:"runs"`
}

// runRepeat runs every workload n times, each run in its own child
// process, reversing the workload order on every other repetition so no
// workload always runs first.
func runRepeat(ctx context.Context, n int, seed uint64, seconds float64, outPath string, w io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	rf := repeatFile{
		Conditions: map[string]string{
			"go": runtime.Version(), "gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
			"nproc": strconv.Itoa(runtime.NumCPU()), "cpu": cpuModel(),
			"seed": strconv.FormatUint(seed, 10), "seconds": strconv.FormatFloat(seconds, 'g', -1, 64),
			"repeats": strconv.Itoa(n),
		},
		Runs: map[string]map[string][]float64{},
	}
	names := workloadNames()
	for k := 0; k < n; k++ {
		for _, name := range names {
			res, err := runChild(ctx, exe, "--workload", name, "--seed", strconv.FormatUint(seed, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
			if err != nil {
				return fmt.Errorf("%s run %d: %w", name, k+1, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s run %d: %d of %d cells failed", name, k+1, res.Failed, res.Attempted)
			}
			if rf.Runs[name] == nil {
				rf.Runs[name] = map[string][]float64{}
			}
			for m, v := range res.Metrics {
				rf.Runs[name][m] = append(rf.Runs[name][m], v.Value)
			}
		}
		slices.Reverse(names)
	}
	fmt.Fprintf(w, "%d runs of each workload at seed %d, %gs each (%s, GOMAXPROCS %s, nproc %s, %s)\n",
		n, seed, seconds, rf.Conditions["go"], rf.Conditions["gomaxprocs"], rf.Conditions["nproc"], rf.Conditions["cpu"])
	fmt.Fprintf(w, "%-16s %-12s %12s %12s %12s %9s %10s\n", "workload", "metric", "q1", "median", "q3", "iqr/med", "bound>=3x")
	for _, name := range workloadNames() {
		for _, m := range endToEnd {
			xs := rf.Runs[name][m.name]
			q1, med, q3 := quartiles(xs)
			spread := ratio(q3-q1, med)
			fmt.Fprintf(w, "%-16s %-12s %12.5g %12.5g %12.5g %8.2f%% %9.2f%%\n", name, m.name, q1, med, q3, 100*spread, 300*spread)
		}
	}
	if outPath == "" {
		return nil
	}
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, append(b, '\n'), 0o644)
}

// runChild runs the benchmark binary and parses the result on the last
// line of its output.
func runChild(ctx context.Context, exe string, args ...string) (result, error) {
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("parse result: %w", err)
	}
	return res, nil
}

// quartiles are the quartiles of xs by the exclusive method of Python's
// statistics.quantiles(xs, n=4), the rule the bounds are calibrated by.
// One sample is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		n, m := 4, len(s)+1
		j := min(max(i*m/n, 1), len(s)-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return q(1), q(2), q(3)
}

// floors are the smallest absolute changes -diff resolves for metrics
// whose values are small enough that a relative bound alone would flag
// noise.
var floors = map[string]float64{"setup_s": 0.05, "peak_rss_mb": 8}

// benchmarkFile is the part of BENCHMARK.json -diff reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runDiff compares a new -repeat file against a base one, metric by
// metric and workload by workload, and fails if any metric is worse.
func runDiff(basePath, newPath, benchPath string, w io.Writer) error {
	var bf benchmarkFile
	var base, next repeatFile
	for _, f := range []struct {
		path string
		v    any
	}{{benchPath, &bf}, {basePath, &base}, {newPath, &next}} {
		raw, err := os.ReadFile(f.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, f.v); err != nil {
			return fmt.Errorf("%s: %w", f.path, err)
		}
	}
	fmt.Fprintf(w, "%-16s %-12s %12s %12s %9s %9s %7s  %s\n", "workload", "metric", "base", "new", "change", "spread", "bound", "verdict")
	worse := 0
	for _, name := range workloadNames() {
		for _, m := range bf.EndToEnd {
			a, b := base.Runs[name][m.Name], next.Runs[name][m.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v, change, spread := verdict(a, b, m.Better == "lower", m.Bound, floors[m.Name])
			if v == "worse" {
				worse++
			}
			_, ma, _ := quartiles(a)
			_, mb, _ := quartiles(b)
			fmt.Fprintf(w, "%-16s %-12s %12.5g %12.5g %+8.2f%% %8.2f%% %6.0f%%  %s\n",
				name, m.Name, ma, mb, 100*change, 100*spread, 100*m.Bound, v)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metrics worse than the base beyond their bounds", worse)
	}
	return nil
}

// verdict classifies new samples b against base samples a. change is the
// relative change of the median, positive when b is worse; spread is the
// base's interquartile range over its median. A base noisier than the
// bound resolves only when every new sample beats every base sample.
func verdict(a, b []float64, lowerBetter bool, bound, floor float64) (v string, change, spread float64) {
	q1, ma, q3 := quartiles(a)
	_, mb, _ := quartiles(b)
	sign := 1.0
	if !lowerBetter {
		sign = -1
	}
	change = sign * ratio(mb-ma, ma)
	spread = ratio(q3-q1, ma)
	switch {
	case math.Abs(mb-ma) < floor:
		return "same", change, spread
	case spread > bound:
		allBetter := slices.Max(b) < slices.Min(a)
		if !lowerBetter {
			allBetter = slices.Min(b) > slices.Max(a)
		}
		if allBetter {
			return "better", change, spread
		}
		return "unresolved", change, spread
	case change > bound:
		return "worse", change, spread
	case change < -bound:
		return "better", change, spread
	}
	return "same", change, spread
}
