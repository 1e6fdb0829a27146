package tcc

import (
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/stamp"
)

// TestHotPathAllocsBounded guards the pooled protocol hot path: misses,
// token round trips, store announcements, read replies, invalidations,
// per-directory commit legs, gating timers, control-circuit evaluations,
// TxInfo round trips and wake-ups are all pooled ops with pre-bound
// callbacks (missOp/tokenOp/announceOp/commitOp/wakeOp here; replyOp/
// invOp/evalOp/txInfoOp in internal/directory), so simulating costs no
// allocation per event. Two bounds pin the two construction modes:
//
//   - Fresh: NewSystem per run. Measures ~8.6k allocations per pair —
//     essentially all construction (engine, directories, caches, line
//     sets). Before the pools this path measured ~95k.
//   - Reused: one System Reset in place between runs, the session pool
//     workers' steady state. Measures ~18 allocations and ~4 KiB per pair
//     (the ledgers and the Results).
//
// Any return of per-event closure allocation costs thousands per run and
// fails both count bounds. A third bound caps the reused pair's bytes at
// 64 KiB: the ledger keeps per-state totals only, and a per-transition
// buffer — the ledger's old timeline cost ~1.1 MB here — would pass the
// count bounds at one allocation per processor. BENCH_engine.json records
// the trajectory (cell_32p_allocs, cell_32p_reuse_allocs,
// cell_32p_reuse_bytes) on every CI run.
func TestHotPathAllocsBounded(t *testing.T) {
	spec := stamp.MustSpec(stamp.Intruder)
	spec.TotalTxs /= 8
	tr, err := spec.Generate(8, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfgFor := func(gated bool) config.Config {
		cfg := config.Default(8)
		if gated {
			cfg = cfg.WithGating(0)
		}
		return cfg
	}

	fresh := func() {
		for _, gated := range []bool{false, true} {
			sys, err := NewSystem(cfgFor(gated), tr)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Run(); err != nil {
				t.Fatal(err)
			}
		}
	}
	const freshBound = 12_000
	if avg := testing.AllocsPerRun(5, fresh); avg > freshBound {
		t.Errorf("fresh paired 8p run allocates %.0f times, bound %d — did a pooled round trip regress to closures?", avg, freshBound)
	}

	sys, err := NewSystem(cfgFor(false), tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil { // warm the pools and the line arena
		t.Fatal(err)
	}
	reused := func() {
		for _, gated := range []bool{false, true} {
			if err := sys.Reset(cfgFor(gated), tr); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Run(); err != nil {
				t.Fatal(err)
			}
		}
	}
	const reuseBound = 1_000
	if avg := testing.AllocsPerRun(5, reused); avg > reuseBound {
		t.Errorf("reused paired 8p run allocates %.0f times, bound %d — is Reset rebuilding state a reused System should keep?", avg, reuseBound)
	}
	const reuseBytesBound = 64 << 10
	if b := bytesPerRun(5, reused); b > reuseBytesBound {
		t.Errorf("reused paired 8p run allocates %d bytes, bound %d — is a run keeping a per-transition record?", b, reuseBytesBound)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the average heap bytes
// one call of f allocates, after a warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
