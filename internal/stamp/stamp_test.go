package stamp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/mem"
	"repro/internal/workload"
)

func TestAllAppsHaveValidSpecs(t *testing.T) {
	for _, app := range AllApps() {
		s, err := Spec(app)
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: invalid spec: %v", app, err)
		}
		if s.Name != string(app) {
			t.Fatalf("%s: spec name %q", app, s.Name)
		}
	}
}

func TestPaperAppsAreSubsetInOrder(t *testing.T) {
	p := PaperApps()
	if len(p) != 3 || p[0] != Genome || p[1] != Yada || p[2] != Intruder {
		t.Fatalf("PaperApps = %v", p)
	}
	all := AllApps()
	if len(all) != 8 {
		t.Fatalf("AllApps has %d entries", len(all))
	}
	for i := range p {
		if all[i] != p[i] {
			t.Fatal("AllApps does not lead with the paper apps")
		}
	}
}

func TestUnknownAppRejected(t *testing.T) {
	if _, err := Spec(App("quake")); err == nil {
		t.Fatal("unknown app accepted")
	}
	if _, err := Generate(App("quake"), 4, 1); err == nil {
		t.Fatal("unknown app generated")
	}
}

func TestMustSpecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustSpec(unknown) did not panic")
		}
	}()
	MustSpec(App("quake"))
}

func TestGenerateAllAppsFitTableIIMemory(t *testing.T) {
	g := mem.MustGeometry(64, 16, 1<<30)
	for _, app := range AllApps() {
		tr, err := Generate(app, 16, 42)
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		if err := tr.Validate(g); err != nil {
			t.Fatalf("%s: trace invalid: %v", app, err)
		}
	}
}

func TestGenerateDeterministicPerApp(t *testing.T) {
	for _, app := range PaperApps() {
		a, _ := Generate(app, 8, 5)
		b, _ := Generate(app, 8, 5)
		if a.TotalTxs() != b.TotalTxs() {
			t.Fatalf("%s: nondeterministic generation", app)
		}
		for ti := range a.Threads {
			if len(a.Threads[ti].Txs) != len(b.Threads[ti].Txs) {
				t.Fatalf("%s: thread %d differs", app, ti)
			}
		}
	}
}

// meanOps returns the observed mean memory operations per transaction.
func meanOps(t *testing.T, app App) float64 {
	t.Helper()
	tr, err := Generate(app, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	ops, txs := 0, 0
	for ti := range tr.Threads {
		for _, tx := range tr.Threads[ti].Txs {
			txs++
			for _, op := range tx.Ops {
				if op.Kind() != workload.OpCompute {
					ops++
				}
			}
		}
	}
	return float64(ops) / float64(txs)
}

func TestAppCharacteristicsOrdering(t *testing.T) {
	// The paper's characterization: intruder has short transactions,
	// yada long ones, genome in between.
	intruder := meanOps(t, Intruder)
	genome := meanOps(t, Genome)
	yada := meanOps(t, Yada)
	if !(intruder < genome && genome < yada) {
		t.Fatalf("tx length ordering violated: intruder=%.1f genome=%.1f yada=%.1f",
			intruder, genome, yada)
	}
}

func TestWorkAmountIndependentOfThreads(t *testing.T) {
	// STAMP divides a fixed work pool among threads: total transactions
	// must not grow with the processor count.
	for _, app := range PaperApps() {
		t4, _ := Generate(app, 4, 42)
		t16, _ := Generate(app, 16, 42)
		if t4.TotalTxs() != t16.TotalTxs() {
			t.Fatalf("%s: total txs %d@4p vs %d@16p", app, t4.TotalTxs(), t16.TotalTxs())
		}
	}
}

func TestGenerateAtScaleAxisWidths(t *testing.T) {
	// Every preset must generate a valid trace at the 64p and 128p scale
	// points: per-thread streams stay non-empty (the generator floors at
	// one transaction per thread) and the work pool still does not grow
	// with the thread count beyond that floor.
	for _, app := range AllApps() {
		for _, threads := range []int{64, MaxThreads} {
			tr, err := Generate(app, threads, 42)
			if err != nil {
				t.Fatalf("%s at %d threads: %v", app, threads, err)
			}
			if tr.NumThreads() != threads {
				t.Fatalf("%s: %d threads generated, want %d", app, tr.NumThreads(), threads)
			}
			for i := range tr.Threads {
				if len(tr.Threads[i].Txs) == 0 {
					t.Fatalf("%s at %d threads: thread %d got no work", app, threads, i)
				}
			}
		}
	}
}

func TestGenerateRejectsOverwideMachines(t *testing.T) {
	if _, err := Generate(Genome, MaxThreads+1, 1); err == nil {
		t.Fatalf("%d threads accepted beyond the machine ceiling", MaxThreads+1)
	}
}

// traceDigest hashes a generated trace's whole stream: per thread its
// transaction count and InterTx gaps, per transaction its PC, op count
// and each op's kind, line and cycles, all as little-endian 64-bit words.
func traceDigest(tr *workload.Trace) string {
	h := sha256.New()
	var buf []byte
	put := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	for ti := range tr.Threads {
		th := &tr.Threads[ti]
		put(uint64(len(th.Txs)))
		for _, gap := range th.InterTx {
			put(uint64(gap))
		}
		for xi := range th.Txs {
			tx := &th.Txs[xi]
			put(tx.PC)
			put(uint64(len(tx.Ops)))
			for _, op := range tx.Ops {
				put(uint64(op.Kind()))
				put(uint64(op.Line()))
				put(uint64(op.Cycles()))
			}
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// TestPresetTraceDigests pins every preset's generated stream at 4p and
// 16p, seed 42, full scale. A change to the generator, or to how a trace
// stores an op, that moves one op, gap or PC of any preset fails here.
func TestPresetTraceDigests(t *testing.T) {
	want := map[string]string{
		"genome/4p":     "0136089b63df3a097ae2bd3d1a9ace22e09acab1cb3d06a15a272fb28e380fe4",
		"genome/16p":    "6521122aa8ede6b16214185aec17865befbcf51375b670b9f5102225fafd311d",
		"yada/4p":       "686ab54d7e1ccddbebc5931e7bf0ad8b67b1c2365e8535a6cad785bf2cb5d5a6",
		"yada/16p":      "497a43ec86c8fb9dda7154cd53f9196207f17f5263b9374e41d651cc4538c081",
		"intruder/4p":   "a25cda7287e4d61932ba7b9f52378f70a916e57a578579cfbf7ab1438936a5cf",
		"intruder/16p":  "c817d13a58e525cc552afe37d82f15b80e4534a365d11c12aace12d479c397a3",
		"bayes/4p":      "7a30871b24ea04dc66ca02cc2b196a9ece6a21f5c127a1cb8240ae5c45641d19",
		"bayes/16p":     "435605e3af242f876a368cf996c979ab74a56b45deff10d5c31ae0b67a05108f",
		"kmeans/4p":     "4aab91973770d79f816585b356436322c2352b9f1322e00a1e9cc12c1e74ccce",
		"kmeans/16p":    "9ffd22313e95e1d32ffb1c66fab82910d7d7e11532cd38a1a7f96737b1b3116d",
		"labyrinth/4p":  "ca308777d0486f5b73222ac6cae3cbf1738e33999b1619ca348f606b8c073754",
		"labyrinth/16p": "30ac4a2e0cceae5a7ed576605a946573bfd18844fab7779e8828bc0eb2334dd4",
		"ssca2/4p":      "0805a05a2336e6b043b0765c16e757c4f6a92c3540f38474b9649bc59c047f26",
		"ssca2/16p":     "c43c10a5a8b6d1cad6236f62876b910e50e8772cb2b093398ec3d2a43d0640f6",
		"vacation/4p":   "7d983d49161e159a3c1248cff4a9bf0942737ed4b17b49cb1003b23b7fa10baa",
		"vacation/16p":  "9e8f5be4a05768aaac31a8de91170b89f71142be6f5f690927dc4b398f4817cd",
	}
	for _, app := range AllApps() {
		for _, threads := range []int{4, 16} {
			tr, err := Generate(app, threads, 42)
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("%s/%dp", app, threads)
			if got := traceDigest(tr); got != want[key] {
				t.Errorf("%s: digest %s, want %s", key, got, want[key])
			}
		}
	}
}

// TestGenerateBytesPerOp bounds the heap bytes that generating a paper
// preset costs per op, transactions and gaps included. An op is one
// 8-byte word, so a trace costs about nine bytes an op; an op as wide as
// a {kind, line, cycles} struct (24 bytes) costs about 26 and fails. The
// count is exact, not a timing.
func TestGenerateBytesPerOp(t *testing.T) {
	const bound = 12.0
	for _, app := range PaperApps() {
		for _, threads := range []int{4, 16} {
			ops := 0
			b := bytesPerRun(3, func() {
				tr, err := Generate(app, threads, 42)
				if err != nil {
					t.Fatal(err)
				}
				ops = 0
				for ti := range tr.Threads {
					ops += tr.Threads[ti].TotalOps()
				}
			})
			perOp := float64(b) / float64(ops)
			t.Logf("%s/%dp: %d ops, %.2f bytes an op", app, threads, ops, perOp)
			if perOp > bound {
				t.Errorf("%s/%dp: generation allocates %.2f bytes an op, bound %.0f", app, threads, perOp, bound)
			}
		}
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
