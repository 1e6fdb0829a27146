// Command bench is the repository's end-to-end benchmark. It runs one of
// four workloads through the simulator's public entry points for a fixed
// time, checks every output, and prints one JSON result line last:
//
//	bash bench/run.sh --workload paper-grid --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics. With --trace 1
// an untraced phase is followed by a traced phase that records a span
// around every layer call and a CPU profile, and the result carries the
// per-layer metrics instead. -repeat runs every workload several times in
// child processes and prints each metric's median and quartiles; -diff
// compares two -repeat files against the bounds in BENCHMARK.json. See
// README.md for the metrics, the workloads and how to read the spans.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// buildDir holds everything a run leaves behind: span files, CPU profiles
// and per-run scratch directories. bench/run.sh builds the binary there too.
const buildDir = ".bench_build"

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", 1, "seed the workload's inputs are derived from")
		seconds = flag.Float64("seconds", 15, "length of the timed phase; it ends on a round boundary once the golden rounds are done")
		trace   = flag.Int("trace", 0, "1 adds a traced phase and prints the per-layer metrics")
		repeat  = flag.Int("repeat", 0, "run every workload N times in child processes, alternating their order, and summarise")
		out     = flag.String("out", "", "with -repeat: write every run's metrics to this JSON file")
		diff    = flag.String("diff", "", "compare two -repeat files: -diff base.json new.json")
		update  = flag.Bool("update-golden", false, "rewrite bench/golden for this workload and seed")
	)
	flag.Parse()
	ctx := context.Background()
	var err error
	switch {
	case *diff != "":
		if flag.NArg() != 1 {
			err = fmt.Errorf("-diff takes two files: -diff base.json new.json")
			break
		}
		err = runDiff(*diff, flag.Arg(0), "BENCHMARK.json", os.Stdout)
	case *repeat > 0:
		err = runRepeat(ctx, *repeat, *seed, *seconds, *out, os.Stdout)
	default:
		err = runMain(ctx, *name, runConfig{
			seed:         *seed,
			seconds:      time.Duration(*seconds * float64(time.Second)),
			trace:        *trace == 1,
			setupReps:    5,
			updateGolden: *update,
			goldenDir:    filepath.Join("bench", "golden"),
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runMain runs one workload and prints its notes, its conditions and the
// result line.
func runMain(ctx context.Context, name string, cfg runConfig) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	cfg.traceDir = filepath.Join(buildDir, "traces")
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg.dir = dir
	rep, err := run(ctx, w, cfg)
	if err != nil {
		return err
	}
	return rep.print(os.Stdout)
}

// runConfig is one run's settings.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	// toy shrinks every workload for the smoke test: traces at a
	// hundredth of their scale, machines of at most toyProcs processors,
	// and one round a phase.
	toy bool
	// setupReps is how many times set-up runs; setup_s is the median.
	setupReps    int
	updateGolden bool
	goldenDir    string
	dir          string // scratch directory removed at exit
	traceDir     string // where span files and CPU profiles are kept
}

const toyProcs = 16

// scale is the factor applied to every workload's trace scale.
func (c runConfig) scale() float64 {
	if c.toy {
		return 0.01
	}
	return 1
}

// minOps is how many operations every phase of w runs at least.
func (c runConfig) minOps(w *workload) int {
	if c.toy {
		return w.roundOps
	}
	return w.goldenRounds * w.roundOps
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// conditions records what a run measured on and how many samples stand
// behind each metric.
type conditions struct {
	Go         string            `json:"go"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	NProc      int               `json:"nproc"`
	CPU        string            `json:"cpu"`
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      bool              `json:"trace"`
	Settings   map[string]string `json:"settings"`
	Samples    map[string]int    `json:"samples"`
}

func newConditions(w *workload, cfg runConfig) conditions {
	return conditions{
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		Workload:   w.name,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds.Seconds(),
		Trace:      cfg.trace,
		Settings:   map[string]string{},
		Samples:    map[string]int{},
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// report is everything one run prints.
type report struct {
	res   result
	cond  conditions
	notes []string
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) set(name string, value float64, samples int) {
	r.res.Metrics[name] = metric{Value: value, Unit: metricUnit(name)}
	r.cond.Samples[name] = samples
}

func (r *report) print(w *os.File) error {
	for _, n := range r.notes {
		fmt.Fprintln(w, "note:", n)
	}
	cond, err := json.Marshal(r.cond)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "conditions:", string(cond))
	line, err := json.Marshal(r.res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
