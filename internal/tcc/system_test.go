package tcc

import (
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// handTrace builds a trace directly from op lists, one slice per thread.
func handTrace(name string, threads ...[]workload.Transaction) *workload.Trace {
	tr := &workload.Trace{Name: name}
	for _, txs := range threads {
		th := workload.Thread{Txs: txs, InterTx: make([]int32, len(txs))}
		for i := range th.InterTx {
			th.InterTx[i] = 1
		}
		tr.Threads = append(tr.Threads, th)
	}
	return tr
}

var rd, wr, cp = workload.Read, workload.Write, workload.Compute

func tx(pc uint64, ops ...workload.Op) workload.Transaction {
	return workload.Transaction{PC: pc, Ops: ops}
}

func mustRun(t *testing.T, cfg config.Config, tr *workload.Trace) *Result {
	t.Helper()
	sys, err := NewSystem(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSingleProcessorSingleTx(t *testing.T) {
	tr := handTrace("t", []workload.Transaction{
		tx(1, cp(10), rd(100), wr(200)),
	})
	res := mustRun(t, config.Default(1), tr)
	if res.Counters.Commits != 1 {
		t.Fatalf("commits %d", res.Counters.Commits)
	}
	if res.Counters.Aborts != 0 {
		t.Fatalf("aborts %d in a single-threaded run", res.Counters.Aborts)
	}
	if res.Cycles <= 110 {
		t.Fatalf("cycles %d implausibly low (one miss alone costs >110)", res.Cycles)
	}
	if res.PerProc[0].Commits != 1 {
		t.Fatal("per-proc commit count wrong")
	}
}

func TestReadOnlyTransactionCommitsWithoutToken(t *testing.T) {
	tr := handTrace("ro", []workload.Transaction{
		tx(1, rd(10), rd(20), cp(5)),
	})
	res := mustRun(t, config.Default(1), tr)
	if res.Counters.Commits != 1 {
		t.Fatalf("commits %d", res.Counters.Commits)
	}
	if res.Counters.TokenRequests != 0 {
		t.Fatalf("read-only tx requested %d tokens", res.Counters.TokenRequests)
	}
	if res.PerProc[0].ReadOnlyCommits != 1 {
		t.Fatal("read-only commit not counted")
	}
}

func TestEveryTransactionCommitsExactlyOnce(t *testing.T) {
	spec := workload.Spec{
		Name: "w", TotalTxs: 80, MeanTxOps: 8, TxOpsJitter: 0.4,
		WriteFrac: 0.5, HotLines: 8, HotFrac: 0.7, ZipfSkew: 1.0,
		PrivateLines: 32, ComputeMean: 2, InterTxMean: 5, TxTypes: 2,
	}
	tr, err := spec.Generate(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, gated := range []bool{false, true} {
		cfg := config.Default(4)
		if gated {
			cfg = cfg.WithGating(0)
		}
		res := mustRun(t, cfg, tr)
		if int(res.Counters.Commits) != tr.TotalTxs() {
			t.Fatalf("gated=%v: commits %d, want %d", gated, res.Counters.Commits, tr.TotalTxs())
		}
		for i, ps := range res.PerProc {
			if int(ps.Commits) != len(tr.Threads[i].Txs) {
				t.Fatalf("gated=%v proc %d commits %d, want %d",
					gated, i, ps.Commits, len(tr.Threads[i].Txs))
			}
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	spec := workload.Spec{
		Name: "d", TotalTxs: 60, MeanTxOps: 10, TxOpsJitter: 0.3,
		WriteFrac: 0.4, HotLines: 8, HotFrac: 0.6, ZipfSkew: 0.9,
		PrivateLines: 64, ComputeMean: 3, InterTxMean: 8, TxTypes: 3,
	}
	tr, _ := spec.Generate(4, 9)
	for _, gated := range []bool{false, true} {
		cfg := config.Default(4)
		if gated {
			cfg = cfg.WithGating(0)
		}
		a := mustRun(t, cfg, tr)
		b := mustRun(t, cfg, tr)
		if a.Cycles != b.Cycles {
			t.Fatalf("gated=%v: nondeterministic cycles %d vs %d", gated, a.Cycles, b.Cycles)
		}
		if a.Counters != b.Counters {
			t.Fatalf("gated=%v: nondeterministic counters\n%+v\n%+v", gated, a.Counters, b.Counters)
		}
	}
}

func TestConflictCausesAborts(t *testing.T) {
	// Two threads repeatedly read+write the same line: conflicts are
	// inevitable.
	mk := func() []workload.Transaction {
		var txs []workload.Transaction
		for i := 0; i < 20; i++ {
			txs = append(txs, tx(7, rd(5), cp(20), wr(5)))
		}
		return txs
	}
	tr := handTrace("conflict", mk(), mk())
	res := mustRun(t, config.Default(2), tr)
	if res.Counters.Aborts == 0 {
		t.Fatal("no aborts in a maximally conflicting workload")
	}
	if res.Counters.Commits != 40 {
		t.Fatalf("commits %d, want 40", res.Counters.Commits)
	}
}

func TestGatingEngagesUnderConflict(t *testing.T) {
	mk := func() []workload.Transaction {
		var txs []workload.Transaction
		for i := 0; i < 20; i++ {
			txs = append(txs, tx(7, rd(5), cp(20), wr(5)))
		}
		return txs
	}
	tr := handTrace("conflict", mk(), mk())
	res := mustRun(t, config.Default(2).WithGating(0), tr)
	if res.Counters.Gatings == 0 {
		t.Fatal("gating never engaged")
	}
	if res.Counters.Ungates == 0 {
		t.Fatal("nothing was ever ungated")
	}
	// Every actual freeze ends in exactly one wake-up self-abort.
	if res.Counters.SelfAborts != res.Counters.Gatings {
		t.Fatalf("self-aborts %d != gatings %d",
			res.Counters.SelfAborts, res.Counters.Gatings)
	}
	if res.Counters.Commits != 40 {
		t.Fatalf("commits %d, want 40", res.Counters.Commits)
	}
}

func TestUngatedRunHasNoGatingActivity(t *testing.T) {
	mk := func() []workload.Transaction {
		return []workload.Transaction{tx(7, rd(5), wr(5)), tx(7, rd(5), wr(5))}
	}
	tr := handTrace("x", mk(), mk())
	res := mustRun(t, config.Default(2), tr)
	if res.Counters.Gatings != 0 || res.Counters.Renewals != 0 ||
		res.Counters.Ungates != 0 || res.Counters.SelfAborts != 0 {
		t.Fatalf("gating counters active in ungated run: %+v", res.Counters)
	}
	if res.Gated {
		t.Fatal("result claims gated")
	}
}

func TestTokenVendorBalanced(t *testing.T) {
	spec := workload.Spec{
		Name: "v", TotalTxs: 60, MeanTxOps: 6, TxOpsJitter: 0.3,
		WriteFrac: 0.6, HotLines: 4, HotFrac: 0.8, ZipfSkew: 1.0,
		PrivateLines: 16, ComputeMean: 2, InterTxMean: 4, TxTypes: 1,
	}
	tr, _ := spec.Generate(4, 5)
	for _, gated := range []bool{false, true} {
		cfg := config.Default(4)
		if gated {
			cfg = cfg.WithGating(0)
		}
		sys, err := NewSystem(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		if n := sys.Vendor().Outstanding(); n != 0 {
			t.Fatalf("gated=%v: %d TIDs leaked", gated, n)
		}
	}
}

func TestLedgerPartitionsruntime(t *testing.T) {
	spec := workload.Spec{
		Name: "l", TotalTxs: 40, MeanTxOps: 8, TxOpsJitter: 0.2,
		WriteFrac: 0.4, HotLines: 8, HotFrac: 0.5, ZipfSkew: 0.5,
		PrivateLines: 32, ComputeMean: 2, InterTxMean: 5, TxTypes: 2,
	}
	tr, _ := spec.Generate(4, 7)
	res := mustRun(t, config.Default(4).WithGating(0), tr)
	tot := res.Ledger.TotalResidency()
	var sum sim.Time
	for s := 0; s < stats.NumStates; s++ {
		sum += tot[s]
	}
	if sum != 4*res.Cycles {
		t.Fatalf("residency %d != procs x cycles %d", sum, 4*res.Cycles)
	}
}

func TestTinyCacheOverflowStillCompletes(t *testing.T) {
	// 2 sets x 2 ways: write sets larger than the cache force the
	// overflow path.
	var ops []workload.Op
	for l := mem.LineAddr(0); l < 16; l++ {
		ops = append(ops, wr(l))
	}
	tr := handTrace("ov", []workload.Transaction{tx(1, ops...)})
	cfg := config.Default(1)
	cfg.Machine.L1SizeBytes = 2 * 2 * 64
	res := mustRun(t, cfg, tr)
	if res.Counters.Overflows == 0 {
		t.Fatal("overflow path not exercised")
	}
	if res.Counters.Commits != 1 {
		t.Fatal("overflowing transaction did not commit")
	}
}

func TestMaxCyclesGuard(t *testing.T) {
	tr := handTrace("g", []workload.Transaction{tx(1, cp(1000), rd(1), wr(2))})
	cfg := config.Default(1)
	cfg.MaxCycles = 100
	sys, err := NewSystem(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err == nil {
		t.Fatal("MaxCycles violation not reported")
	}
}

func TestThreadCountMismatchRejected(t *testing.T) {
	tr := handTrace("m", []workload.Transaction{tx(1, rd(1))})
	if _, err := NewSystem(config.Default(2), tr); err == nil {
		t.Fatal("thread/processor mismatch accepted")
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	tr := handTrace("m", []workload.Transaction{tx(1, rd(1))})
	cfg := config.Default(1)
	cfg.Machine.DirectoryCycles = 0
	if _, err := NewSystem(cfg, tr); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestFewerDirectoriesThanProcessors(t *testing.T) {
	spec := workload.Spec{
		Name: "fd", TotalTxs: 40, MeanTxOps: 6, TxOpsJitter: 0.3,
		WriteFrac: 0.5, HotLines: 8, HotFrac: 0.6, ZipfSkew: 0.8,
		PrivateLines: 32, ComputeMean: 2, InterTxMean: 4, TxTypes: 2,
	}
	tr, _ := spec.Generate(4, 11)
	cfg := config.Default(4).WithGating(0)
	cfg.Machine.Directories = 2
	res := mustRun(t, cfg, tr)
	if int(res.Counters.Commits) != tr.TotalTxs() {
		t.Fatalf("commits %d, want %d", res.Counters.Commits, tr.TotalTxs())
	}
}

func TestGatedNeverSlowerThanTwofold(t *testing.T) {
	// Sanity bound: gating may cost some time but must never explode the
	// runtime (the protocol biases toward turning processors on).
	spec := workload.Spec{
		Name: "s", TotalTxs: 80, MeanTxOps: 10, TxOpsJitter: 0.4,
		WriteFrac: 0.5, HotLines: 8, HotFrac: 0.7, ZipfSkew: 1.0,
		PrivateLines: 32, ComputeMean: 3, InterTxMean: 6, TxTypes: 2,
	}
	tr, _ := spec.Generate(8, 13)
	ug := mustRun(t, config.Default(8), tr)
	g := mustRun(t, config.Default(8).WithGating(0), tr)
	if float64(g.Cycles) > 2*float64(ug.Cycles) {
		t.Fatalf("gated run %d cycles vs ungated %d: pathological slowdown",
			g.Cycles, ug.Cycles)
	}
}

func TestAbortsRequireReadConflict(t *testing.T) {
	// Write-write sharing without reads must not abort (TCC semantics).
	mk := func() []workload.Transaction {
		var txs []workload.Transaction
		for i := 0; i < 10; i++ {
			txs = append(txs, tx(3, cp(5), wr(9)))
		}
		return txs
	}
	tr := handTrace("ww", mk(), mk())
	res := mustRun(t, config.Default(2), tr)
	if res.Counters.Aborts != 0 {
		t.Fatalf("write-write sharing caused %d aborts", res.Counters.Aborts)
	}
}

// Property: arbitrary small workloads complete with every transaction
// committed, under both configurations, with no token leaks.
func TestQuickNoLivelock(t *testing.T) {
	f := func(seed uint64, hotRaw, opsRaw, procsRaw uint8) bool {
		procs := []int{1, 2, 4, 8}[int(procsRaw)%4]
		spec := workload.Spec{
			Name:         "q",
			TotalTxs:     8 * procs,
			MeanTxOps:    int(opsRaw%12) + 2,
			TxOpsJitter:  0.3,
			WriteFrac:    0.5,
			HotLines:     int(hotRaw%16) + 2,
			HotFrac:      0.7,
			ZipfSkew:     1.0,
			PrivateLines: 16,
			ComputeMean:  2,
			InterTxMean:  3,
			TxTypes:      2,
		}
		tr, err := spec.Generate(procs, seed)
		if err != nil {
			return false
		}
		for _, gated := range []bool{false, true} {
			cfg := config.Default(procs)
			if gated {
				cfg = cfg.WithGating(0)
			}
			cfg.MaxCycles = 20_000_000
			sys, err := NewSystem(cfg, tr)
			if err != nil {
				return false
			}
			res, err := sys.Run()
			if err != nil {
				return false
			}
			if int(res.Counters.Commits) != tr.TotalTxs() {
				return false
			}
			if sys.Vendor().Outstanding() != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
