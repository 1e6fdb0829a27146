// Command benchsnap records the engine's perf trajectory: it benchmarks
// the simulation hot path (calendar-queue engine, batched bus, a full
// 32-processor paired run-cell) with testing.Benchmark and writes the
// numbers as one JSON document, BENCH_engine.json by convention. CI runs
// it in the bench smoke step so every build leaves a machine-readable
// perf record next to the logs.
//
//	go run ./cmd/benchsnap -out BENCH_engine.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/stamp"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

// snapshot is the BENCH_engine.json schema.
type snapshot struct {
	Schema  string             `json:"schema"`
	Go      string             `json:"go"`
	NumCPU  int                `json:"num_cpu"`
	Metrics map[string]float64 `json:"metrics"`
}

func main() {
	out := flag.String("out", "BENCH_engine.json", "output path for the JSON perf record")
	flag.Parse()

	m := map[string]float64{}

	// Raw event throughput: the self-scheduling cascade the processor
	// model produces, on a warm engine.
	{
		const chain = 100_000
		r := testing.Benchmark(func(b *testing.B) {
			e := sim.NewEngine()
			n := 0
			var next func()
			next = func() {
				n++
				if n%chain != 0 {
					e.ScheduleAfter(1, next)
				}
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.ScheduleAfter(1, next)
				e.Run()
			}
		})
		m["engine_events_per_sec"] = float64(chain) / r.T.Seconds() * float64(r.N)
		m["engine_allocs_per_event"] = float64(r.AllocsPerOp()) / chain
	}

	// Steady-state allocation guard value (the sim test asserts 0; the
	// snapshot records it so a regression is visible in the trajectory
	// even before the test flips).
	{
		e := sim.NewEngine()
		fn := func() {}
		work := func() {
			for i := 0; i < 64; i++ {
				e.ScheduleAfter(sim.Time(i%37), fn)
			}
			e.Run()
		}
		for i := 0; i < 512; i++ {
			work()
		}
		m["engine_steady_allocs_per_burst"] = testing.AllocsPerRun(50, work)
	}

	// The headline: one paired (ungated + gated) 32-processor run-cell of
	// the high-conflict preset, trace pre-generated.
	{
		spec := stamp.MustSpec(stamp.Intruder)
		spec.TotalTxs /= 4
		tr, err := spec.Generate(32, 42)
		if err != nil {
			fatal(err)
		}
		rs := core.RunSpec{Trace: tr, Processors: 32, Seed: 42}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.RunPair(rs); err != nil {
					b.Fatal(err)
				}
			}
		})
		m["cell_32p_ns"] = float64(r.NsPerOp())
		m["cell_32p_cells_per_sec"] = 1e9 / float64(r.NsPerOp())
		m["cell_32p_allocs"] = float64(r.AllocsPerOp())
		m["cell_32p_bytes"] = float64(r.AllocedBytesPerOp())

		// The same cell on a reused System — the session pool workers'
		// steady state: one warm SystemCache carried across the whole
		// stream, runs reset in place instead of rebuilt.
		sc := &core.SystemCache{}
		if _, err := core.RunPairCached(context.Background(), rs, sc); err != nil {
			fatal(err)
		}
		r = testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.RunPairCached(context.Background(), rs, sc); err != nil {
					b.Fatal(err)
				}
			}
		})
		m["cell_32p_reuse_ns"] = float64(r.NsPerOp())
		m["cell_32p_reuse_cells_per_sec"] = 1e9 / float64(r.NsPerOp())
		m["cell_32p_reuse_allocs"] = float64(r.AllocsPerOp())
		m["cell_32p_reuse_bytes"] = float64(r.AllocedBytesPerOp())
	}

	// Interconnect scaling: the same 128-processor paired cell on the
	// single-bank and the 4-banked bus, at line-beat occupancy (8 cycles —
	// a 64-byte line on a 64-bit path), where the single bus saturates.
	// Recording both shapes makes the banked model's contention relief a
	// tracked number: interconnect_scaling_128p is the banked/single
	// cells-per-second ratio (BenchmarkInterconnectScaling is the
	// interactive form of the same measurement).
	{
		spec := stamp.MustSpec(stamp.Intruder)
		spec.TotalTxs /= 4
		tr, err := spec.Generate(128, 42)
		if err != nil {
			fatal(err)
		}
		for _, banks := range []int{1, 4} {
			rs := core.RunSpec{Trace: tr, Processors: 128, Seed: 42,
				Configure: func(c *config.Config) {
					c.Machine.Banks = banks
					c.Machine.BusCycles = 8
				}}
			var wait, msgs uint64
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					out, err := core.RunPair(rs)
					if err != nil {
						b.Fatal(err)
					}
					wait, msgs = out.Ungated.BusStats.WaitCycles, out.Ungated.BusStats.Messages
				}
			})
			key := fmt.Sprintf("cell_128p_banks%d", banks)
			m[key+"_ns"] = float64(r.NsPerOp())
			m[key+"_cells_per_sec"] = 1e9 / float64(r.NsPerOp())
			m[key+"_wait_cycles_per_msg"] = float64(wait) / float64(msgs)
		}
		m["interconnect_scaling_128p"] = m["cell_128p_banks4_cells_per_sec"] /
			m["cell_128p_banks1_cells_per_sec"]

		// Topology lanes: the same cell on the point-to-point fabrics
		// (mesh at its natural 8x16 fold, full crossbar, 128-node ring —
		// the slowest lane), banking off.
		// Recording them next to the banked lanes keeps the two
		// interconnect axes comparable; topology_scaling_128p is the
		// mesh/single-bus cells-per-second ratio, and the fabrics'
		// wait-cycles/msg undercutting cell_128p_banks4's is the tentpole
		// payoff number (BenchmarkTopologyScaling is the interactive form).
		for _, topo := range []string{"mesh", "xbar", "ring"} {
			rs := core.RunSpec{Trace: tr, Processors: 128, Seed: 42,
				Configure: func(c *config.Config) {
					c.Machine.Topology = topo
					c.Machine.BusCycles = 8
				}}
			var wait, msgs uint64
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					out, err := core.RunPair(rs)
					if err != nil {
						b.Fatal(err)
					}
					wait, msgs = out.Ungated.BusStats.WaitCycles, out.Ungated.BusStats.Messages
				}
			})
			key := "cell_128p_" + topo
			m[key+"_ns"] = float64(r.NsPerOp())
			m[key+"_cells_per_sec"] = 1e9 / float64(r.NsPerOp())
			m[key+"_wait_cycles_per_msg"] = float64(wait) / float64(msgs)
		}
		m["topology_scaling_128p"] = m["cell_128p_mesh_cells_per_sec"] /
			m["cell_128p_banks1_cells_per_sec"]
	}

	// Re-pricing throughput: a small campaign is simulated once into a
	// journal, then the journal's records re-price under a non-default
	// technology point in memory. The acceptance floor is 10^4 cells/s —
	// checkpoint arithmetic, orders of magnitude above simulation speed —
	// so this metric doubles as the "reprice never simulates" tripwire.
	{
		dir, err := os.MkdirTemp("", "benchsnap-reprice")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(dir)
		journal := filepath.Join(dir, "journal.jsonl")
		o := experiments.Options{Seed: 42, Scale: 0.05, Processors: []int{8}}
		s := experiments.NewSession(o)
		if err := s.SetCheckpoint(journal); err != nil {
			s.Close()
			fatal(err)
		}
		if _, err := s.Run(context.Background()); err != nil {
			s.Close()
			fatal(err)
		}
		s.Close()
		recs, err := experiments.ReadJournalFile(journal)
		if err != nil {
			fatal(err)
		}
		techs := []string{"t45", "t32", "t65-srpg50"}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Reprice(recs, techs); err != nil {
					b.Fatal(err)
				}
			}
		})
		cells := float64(len(recs) * len(techs))
		m["reprice_cells_per_sec"] = cells / float64(r.NsPerOp()) * 1e9
		m["reprice_cell_ns"] = float64(r.NsPerOp()) / cells
	}

	// Trace-store provisioning: the same trace generated from scratch
	// (the cold path every process paid before the store), published and
	// loaded back through a cold store, and served as a store hit (the
	// mmap-aliasing load a warm fleet pays). trace_store_speedup is the
	// generation/hit ratio — the per-process provisioning win the shared
	// store buys on top of the in-process cache.
	{
		spec := stamp.MustSpec(stamp.Intruder)
		spec.TotalTxs /= 4
		gen := func() (*workload.Trace, error) { return spec.Generate(32, 42) }
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := gen(); err != nil {
					b.Fatal(err)
				}
			}
		})
		m["trace_gen_ns"] = float64(r.NsPerOp())

		dir, err := os.MkdirTemp("", "benchsnap-tracestore")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(dir)
		key := tracestore.Key{App: "intruder", Threads: 32, Scale: 0.25, Seed: 42}
		r = testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cold, err := os.MkdirTemp(dir, "cold")
				if err != nil {
					b.Fatal(err)
				}
				st, err := tracestore.Open(cold, tracestore.Options{})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := st.GetOrGenerate(key, gen); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				st.Close()
				os.RemoveAll(cold)
				b.StartTimer()
			}
		})
		m["trace_store_cold_ns"] = float64(r.NsPerOp())

		warm, err := tracestore.Open(filepath.Join(dir, "warm"), tracestore.Options{})
		if err != nil {
			fatal(err)
		}
		if _, err := warm.GetOrGenerate(key, gen); err != nil {
			fatal(err)
		}
		r = testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok, err := warm.Load(key); err != nil || !ok {
					b.Fatalf("store hit failed: ok=%v err=%v", ok, err)
				}
			}
		})
		warm.Close()
		m["trace_store_hit_ns"] = float64(r.NsPerOp())
		m["trace_store_hit_allocs"] = float64(r.AllocsPerOp())
		m["trace_store_speedup"] = m["trace_gen_ns"] / m["trace_store_hit_ns"]
	}

	snap := snapshot{
		Schema:  "bench_engine/v1",
		Go:      runtime.Version(),
		NumCPU:  runtime.NumCPU(),
		Metrics: m,
	}
	buf, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n%s", *out, buf)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchsnap:", err)
	os.Exit(1)
}
