package workload

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/mem"
)

func validSpec() Spec {
	return Spec{
		Name:         "test",
		TotalTxs:     64,
		MeanTxOps:    10,
		TxOpsJitter:  0.5,
		WriteFrac:    0.4,
		HotLines:     16,
		HotFrac:      0.5,
		ZipfSkew:     0.8,
		PrivateLines: 32,
		ComputeMean:  3,
		InterTxMean:  10,
		TxTypes:      3,
	}
}

func TestSpecValidate(t *testing.T) {
	vs := validSpec()
	if err := vs.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	edits := []struct {
		name string
		edit func(*Spec)
	}{
		{"zero txs", func(s *Spec) { s.TotalTxs = 0 }},
		{"zero ops", func(s *Spec) { s.MeanTxOps = 0 }},
		{"jitter 1", func(s *Spec) { s.TxOpsJitter = 1 }},
		{"negative jitter", func(s *Spec) { s.TxOpsJitter = -0.1 }},
		{"write frac > 1", func(s *Spec) { s.WriteFrac = 1.1 }},
		{"zero hot", func(s *Spec) { s.HotLines = 0 }},
		{"hot frac > 1", func(s *Spec) { s.HotFrac = 2 }},
		{"negative skew", func(s *Spec) { s.ZipfSkew = -1 }},
		{"zero private", func(s *Spec) { s.PrivateLines = 0 }},
		{"negative compute", func(s *Spec) { s.ComputeMean = -1 }},
		{"negative intertx", func(s *Spec) { s.InterTxMean = -1 }},
		{"zero tx types", func(s *Spec) { s.TxTypes = 0 }},
	}
	for _, e := range edits {
		t.Run(e.name, func(t *testing.T) {
			s := validSpec()
			e.edit(&s)
			if err := s.Validate(); err == nil {
				t.Fatalf("%s passed validation", e.name)
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	s := validSpec()
	a, err := s.Generate(4, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Generate(4, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Threads, b.Threads) {
		t.Fatal("same (spec, threads, seed) produced different traces")
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	s := validSpec()
	a, _ := s.Generate(4, 1)
	b, _ := s.Generate(4, 2)
	if reflect.DeepEqual(a.Threads, b.Threads) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGenerateDividesWork(t *testing.T) {
	s := validSpec()
	for _, threads := range []int{1, 2, 4, 8} {
		tr, err := s.Generate(threads, 7)
		if err != nil {
			t.Fatal(err)
		}
		if tr.NumThreads() != threads {
			t.Fatalf("threads %d, want %d", tr.NumThreads(), threads)
		}
		per := s.TotalTxs / threads
		for ti := range tr.Threads {
			if got := len(tr.Threads[ti].Txs); got != per {
				t.Fatalf("thread %d has %d txs, want %d", ti, got, per)
			}
		}
	}
}

func TestGenerateValidatesAgainstGeometry(t *testing.T) {
	s := validSpec()
	tr, err := s.Generate(4, 42)
	if err != nil {
		t.Fatal(err)
	}
	g := mem.MustGeometry(64, 4, 1<<30)
	if err := tr.Validate(g); err != nil {
		t.Fatalf("generated trace invalid: %v", err)
	}
}

func TestGenerateRespectsAddressLayout(t *testing.T) {
	s := validSpec()
	tr, _ := s.Generate(4, 42)
	maxLine := s.MaxLine(4)
	for ti := range tr.Threads {
		for _, tx := range tr.Threads[ti].Txs {
			for _, op := range tx.Ops {
				if op.Kind() == OpCompute {
					continue
				}
				line := op.Line()
				if line > maxLine {
					t.Fatalf("line %d beyond layout max %d", line, maxLine)
				}
				// Non-hot lines must be in this thread's private region.
				if int(line) >= s.HotLines {
					lo := mem.LineAddr(s.HotLines + ti*s.PrivateLines)
					hi := lo + mem.LineAddr(s.PrivateLines)
					if line < lo || line >= hi {
						t.Fatalf("thread %d touched foreign private line %d", ti, line)
					}
				}
			}
		}
	}
}

func TestGeneratePCsWithinTypeCount(t *testing.T) {
	s := validSpec()
	tr, _ := s.Generate(2, 9)
	pcs := map[uint64]bool{}
	for ti := range tr.Threads {
		for _, tx := range tr.Threads[ti].Txs {
			pcs[tx.PC] = true
		}
	}
	if len(pcs) > s.TxTypes {
		t.Fatalf("%d distinct PCs, spec allows %d", len(pcs), s.TxTypes)
	}
}

func TestTransactionDistinctLines(t *testing.T) {
	tx := Transaction{Ops: []Op{Read(5), Write(7), Read(5), Compute(3), Write(7), Write(9)}}
	r := tx.ReadLines()
	w := tx.WriteLines()
	if len(r) != 1 || r[0] != 5 {
		t.Fatalf("ReadLines %v", r)
	}
	if len(w) != 2 || w[0] != 7 || w[1] != 9 {
		t.Fatalf("WriteLines %v", w)
	}
}

func TestTraceValidateCatchesCorruption(t *testing.T) {
	g := mem.MustGeometry(64, 4, 4096) // only 64 lines
	mk := func(edit func(*Trace)) *Trace {
		tr := &Trace{
			Name: "x",
			Threads: []Thread{{
				Txs:     []Transaction{{PC: 1, Ops: []Op{Read(3)}}},
				InterTx: []int32{1},
			}},
		}
		edit(tr)
		return tr
	}
	if err := mk(func(*Trace) {}).Validate(g); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	cases := []struct {
		name string
		edit func(*Trace)
	}{
		{"no threads", func(tr *Trace) { tr.Threads = nil }},
		{"intertx mismatch", func(tr *Trace) { tr.Threads[0].InterTx = nil }},
		{"empty tx", func(tr *Trace) { tr.Threads[0].Txs[0].Ops = nil }},
		{"line out of memory", func(tr *Trace) { tr.Threads[0].Txs[0].Ops[0] = Read(1 << 40) }},
		// Line 2^58+3's byte address wraps past 2^64 to 192, inside
		// memory; only the line number shows it is not.
		{"line address wraps", func(tr *Trace) { tr.Threads[0].Txs[0].Ops[0] = Write(1<<58 + 3) }},
		{"bad op kind", func(tr *Trace) { tr.Threads[0].Txs[0].Ops[0] = Op(3) }},
		{"non-positive compute", func(tr *Trace) { tr.Threads[0].Txs[0].Ops[0] = Compute(0) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := mk(c.edit).Validate(g); err == nil {
				t.Fatalf("%s passed validation", c.name)
			}
		})
	}
}

func TestOpKindString(t *testing.T) {
	if OpRead.String() != "read" || OpWrite.String() != "write" || OpCompute.String() != "compute" {
		t.Fatal("OpKind strings wrong")
	}
	if OpKind(9).String() == "" {
		t.Fatal("unknown kind has empty string")
	}
}

func TestTotalsAndCounts(t *testing.T) {
	s := validSpec()
	tr, _ := s.Generate(4, 11)
	if tr.TotalTxs() != 64 {
		t.Fatalf("TotalTxs %d, want 64", tr.TotalTxs())
	}
	if tr.Threads[0].TotalOps() <= 0 {
		t.Fatal("thread 0 has no ops")
	}
}

// TestOpPacking: every op reads back what built it, at the edges of the
// 62-bit line field and of the int32 cycle count, and the field an op
// does not use reads 0. A line that does not fit in 62 bits panics.
func TestOpPacking(t *testing.T) {
	for _, l := range []mem.LineAddr{0, 1, 1<<58 + 3, maxOpLine} {
		for _, c := range []struct {
			op   Op
			kind OpKind
		}{{Read(l), OpRead}, {Write(l), OpWrite}} {
			if c.op.Kind() != c.kind || c.op.Line() != l || c.op.Cycles() != 0 {
				t.Errorf("%s(%d) reads back %s line %d cycles %d", c.kind, l, c.op.Kind(), c.op.Line(), c.op.Cycles())
			}
		}
	}
	for _, n := range []int32{1, 3, -1, math.MaxInt32, math.MinInt32} {
		op := Compute(n)
		if op.Kind() != OpCompute || op.Cycles() != n || op.Line() != 0 {
			t.Errorf("Compute(%d) reads back %s line %d cycles %d", n, op.Kind(), op.Line(), op.Cycles())
		}
	}
	for _, build := range []func(mem.LineAddr) Op{Read, Write} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("line %d beyond 62 bits did not panic", maxOpLine+1)
				}
			}()
			build(maxOpLine + 1)
		}()
	}
}
