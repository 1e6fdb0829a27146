// Package workload defines transactional workload traces and their
// generator. A trace is the unit of reproducibility: the same trace is run
// under the ungated and gated configurations so the two runs differ only
// in the mechanism under study, exactly as the paper compares the same
// STAMP binary with and without clock gating.
//
// A trace is a set of per-thread transaction streams. Each transaction is
// a sequence of operations — line reads, line writes and compute bursts —
// plus the "PC" that identifies the static transaction (the paper
// identifies a transaction by the program-counter value of its first
// instruction; the renewal check of the gating protocol compares these).
package workload

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
)

// OpKind discriminates trace operations.
type OpKind uint8

const (
	// OpRead is a transactional load of one cache line.
	OpRead OpKind = iota
	// OpWrite is a transactional store to one cache line.
	OpWrite
	// OpCompute is a burst of core-local computation.
	OpCompute
)

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpCompute:
		return "compute"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is one trace operation packed into one 64-bit word: the kind in the
// low 2 bits, and in the upper 62 the line of a read or write, or the
// 32 bits of a compute burst's cycle count. Read, Write and Compute
// build an op; Kind, Line and Cycles read it back. A line must fit in 62
// bits: at lines of 4 bytes or more, every line of a 64-bit byte address
// space does. A generated trace is mostly ops, so an op's size sets what
// the session's trace cache holds.
type Op uint64

const (
	opKindBits = 2
	opKindMask = 1<<opKindBits - 1
	maxOpLine  = mem.LineAddr(1)<<(64-opKindBits) - 1
)

// Read returns a transactional load of line l. It panics if l does not
// fit in 62 bits.
func Read(l mem.LineAddr) Op { return lineOp(OpRead, l) }

// Write returns a transactional store to line l. It panics if l does not
// fit in 62 bits.
func Write(l mem.LineAddr) Op { return lineOp(OpWrite, l) }

func lineOp(k OpKind, l mem.LineAddr) Op {
	if l > maxOpLine {
		panic(fmt.Sprintf("workload: %s of line %d beyond the %d-bit line bound", k, l, 64-opKindBits))
	}
	return Op(l)<<opKindBits | Op(k)
}

// Compute returns a burst of c core-local cycles.
func Compute(c int32) Op { return Op(uint32(c))<<opKindBits | Op(OpCompute) }

// Kind returns the op's kind.
func (op Op) Kind() OpKind { return OpKind(op & opKindMask) }

// Line returns the line a read or write touches, and 0 for a compute
// burst.
func (op Op) Line() mem.LineAddr {
	if op.Kind() == OpCompute {
		return 0
	}
	return mem.LineAddr(op >> opKindBits)
}

// Cycles returns a compute burst's cycle count, and 0 for a read or
// write.
func (op Op) Cycles() int32 {
	if op.Kind() != OpCompute {
		return 0
	}
	return int32(uint32(op >> opKindBits))
}

// Transaction is one dynamic transaction instance.
type Transaction struct {
	// PC identifies the static transaction that this instance executes.
	// Instances of the same loop body share a PC; the gating protocol's
	// renewal check compares PCs.
	PC uint64
	// Ops is the body.
	Ops []Op
}

// ReadLines returns the distinct lines the transaction reads.
func (t *Transaction) ReadLines() []mem.LineAddr {
	return t.distinct(OpRead)
}

// WriteLines returns the distinct lines the transaction writes.
func (t *Transaction) WriteLines() []mem.LineAddr {
	return t.distinct(OpWrite)
}

func (t *Transaction) distinct(kind OpKind) []mem.LineAddr {
	seen := make(map[mem.LineAddr]struct{})
	var out []mem.LineAddr
	for _, op := range t.Ops {
		if op.Kind() != kind {
			continue
		}
		l := op.Line()
		if _, ok := seen[l]; ok {
			continue
		}
		seen[l] = struct{}{}
		out = append(out, l)
	}
	return out
}

// Thread is one processor's stream of transactions. InterTx holds the
// non-transactional compute cycles executed before each transaction
// (len(InterTx) == len(Txs)); it models the code between atomic regions.
type Thread struct {
	Txs     []Transaction
	InterTx []int32
}

// TotalOps returns the number of operations across all transactions.
func (th *Thread) TotalOps() int {
	n := 0
	for i := range th.Txs {
		n += len(th.Txs[i].Ops)
	}
	return n
}

// Trace is a complete workload for one run. A Trace is immutable once
// built: the simulator reads thread state by index and never writes any
// of it back (processors keep their own txIdx/opIdx cursors), which is
// what lets the session trace cache hand one *Trace to many concurrent
// runs — including the two runs of a pair and the reused Systems of
// different pool workers — without copying. tcc's
// TestRunLeavesTraceUntouched asserts the no-mutation half of the
// contract.
type Trace struct {
	// Name labels the workload (e.g. "intruder").
	Name string
	// Threads holds one stream per processor.
	Threads []Thread
	// Spec records the generator parameters that produced the trace,
	// for provenance. Nil for hand-built traces.
	Spec *Spec
}

// NumThreads returns the processor count the trace was built for.
func (tr *Trace) NumThreads() int { return len(tr.Threads) }

// TotalTxs returns the number of transactions across all threads.
func (tr *Trace) TotalTxs() int {
	n := 0
	for i := range tr.Threads {
		n += len(tr.Threads[i].Txs)
	}
	return n
}

// Validate checks the trace is well formed for the given geometry: every
// referenced line is inside physical memory and per-thread streams are
// consistent.
func (tr *Trace) Validate(geom *mem.Geometry) error {
	if len(tr.Threads) == 0 {
		return fmt.Errorf("workload: trace %q has no threads", tr.Name)
	}
	// Compare line numbers, not byte addresses: the address of a line at
	// or beyond 2^58 (at 64-byte lines) wraps past 2^64 into memory.
	lines := geom.TotalLines()
	for ti := range tr.Threads {
		th := &tr.Threads[ti]
		if len(th.InterTx) != len(th.Txs) {
			return fmt.Errorf("workload: thread %d InterTx length %d != Txs length %d",
				ti, len(th.InterTx), len(th.Txs))
		}
		for xi := range th.Txs {
			tx := &th.Txs[xi]
			if len(tx.Ops) == 0 {
				return fmt.Errorf("workload: thread %d tx %d is empty", ti, xi)
			}
			for oi, op := range tx.Ops {
				switch op.Kind() {
				case OpRead, OpWrite:
					if uint64(op.Line()) >= lines {
						return fmt.Errorf("workload: thread %d tx %d op %d line %d outside memory",
							ti, xi, oi, op.Line())
					}
				case OpCompute:
					if op.Cycles() <= 0 {
						return fmt.Errorf("workload: thread %d tx %d op %d compute %d must be positive",
							ti, xi, oi, op.Cycles())
					}
				default:
					return fmt.Errorf("workload: thread %d tx %d op %d has invalid kind %d",
						ti, xi, oi, op.Kind())
				}
			}
		}
	}
	return nil
}

// Spec parameterizes the synthetic workload generator. The fields map to
// the workload characteristics that drive HTM abort behaviour: transaction
// length, read/write-set sizes, and the size and skew of the shared
// hot region that produces conflicts.
type Spec struct {
	// Name labels the workload.
	Name string
	// TotalTxs is the total transaction count, divided evenly among
	// threads (STAMP divides a fixed work pool among threads, so more
	// processors mean fewer transactions each).
	TotalTxs int
	// MeanTxOps is the mean number of memory operations per transaction.
	MeanTxOps int
	// TxOpsJitter is the +/- fractional spread of transaction length
	// (0.5 means lengths vary uniformly within ±50% of the mean).
	TxOpsJitter float64
	// WriteFrac is the fraction of memory operations that are writes.
	WriteFrac float64
	// HotLines is the size (in cache lines) of the shared conflict-prone
	// region.
	HotLines int
	// HotFrac is the fraction of memory operations that touch the hot
	// region (the rest touch thread-private lines).
	HotFrac float64
	// ZipfSkew is the access skew within the hot region; 0 is uniform.
	ZipfSkew float64
	// PrivateLines is the size of each thread's private region.
	PrivateLines int
	// ComputeMean is the mean compute-burst length inserted between
	// memory operations, in cycles.
	ComputeMean float64
	// InterTxMean is the mean non-transactional gap before each
	// transaction, in cycles.
	InterTxMean float64
	// TxTypes is the number of distinct static transactions (PCs); the
	// gating renewal check keys on these. STAMP kernels have a handful
	// of atomic blocks executed inside loops.
	TxTypes int
}

// Validate checks generator parameters.
func (s *Spec) Validate() error {
	switch {
	case s.TotalTxs <= 0:
		return fmt.Errorf("workload: TotalTxs %d must be positive", s.TotalTxs)
	case s.MeanTxOps <= 0:
		return fmt.Errorf("workload: MeanTxOps %d must be positive", s.MeanTxOps)
	case s.TxOpsJitter < 0 || s.TxOpsJitter >= 1:
		return fmt.Errorf("workload: TxOpsJitter %f out of [0,1)", s.TxOpsJitter)
	case s.WriteFrac < 0 || s.WriteFrac > 1:
		return fmt.Errorf("workload: WriteFrac %f out of [0,1]", s.WriteFrac)
	case s.HotLines <= 0:
		return fmt.Errorf("workload: HotLines %d must be positive", s.HotLines)
	case s.HotFrac < 0 || s.HotFrac > 1:
		return fmt.Errorf("workload: HotFrac %f out of [0,1]", s.HotFrac)
	case s.ZipfSkew < 0:
		return fmt.Errorf("workload: ZipfSkew %f must be non-negative", s.ZipfSkew)
	case s.PrivateLines <= 0:
		return fmt.Errorf("workload: PrivateLines %d must be positive", s.PrivateLines)
	case s.ComputeMean < 0:
		return fmt.Errorf("workload: ComputeMean %f must be non-negative", s.ComputeMean)
	case s.InterTxMean < 0:
		return fmt.Errorf("workload: InterTxMean %f must be non-negative", s.InterTxMean)
	case s.TxTypes <= 0:
		return fmt.Errorf("workload: TxTypes %d must be positive", s.TxTypes)
	}
	return nil
}

// Layout of the synthetic address space, in lines:
//
//	[0, HotLines)                          shared hot region
//	[hotEnd + t*PrivateLines, ...)         thread t's private region
//
// The hot region is where conflicts happen; private lines provide the
// cache-miss background traffic.
func (s *Spec) hotLine(idx int) mem.LineAddr {
	return mem.LineAddr(idx)
}

func (s *Spec) privateLine(thread, idx int) mem.LineAddr {
	return mem.LineAddr(s.HotLines + thread*s.PrivateLines + idx)
}

// MaxLine returns the highest line address the generated trace can touch,
// for geometry validation.
func (s *Spec) MaxLine(threads int) mem.LineAddr {
	return mem.LineAddr(s.HotLines + threads*s.PrivateLines - 1)
}

// Generate builds a deterministic trace for the given thread count and
// seed. The same (spec, threads, seed) triple always yields an identical
// trace.
func (s *Spec) Generate(threads int, seed uint64) (*Trace, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if threads <= 0 {
		return nil, fmt.Errorf("workload: threads %d must be positive", threads)
	}
	tr := &Trace{Name: s.Name, Threads: make([]Thread, threads), Spec: s}
	perThread := s.TotalTxs / threads
	if perThread == 0 {
		perThread = 1
	}
	for t := 0; t < threads; t++ {
		rng := sim.NewRNG(seed, uint64(t)+0x1000)
		zipf := sim.NewZipf(rng.Derive(7), s.HotLines, s.ZipfSkew)
		th := &tr.Threads[t]
		th.Txs = make([]Transaction, perThread)
		th.InterTx = make([]int32, perThread)
		for x := 0; x < perThread; x++ {
			th.InterTx[x] = int32(rng.Geometric(maxf(s.InterTxMean, 1)))
			th.Txs[x] = s.genTx(t, rng, zipf)
		}
	}
	return tr, nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func (s *Spec) genTx(thread int, rng *sim.RNG, zipf *sim.Zipf) Transaction {
	nops := s.MeanTxOps
	if s.TxOpsJitter > 0 {
		spread := int(float64(s.MeanTxOps) * s.TxOpsJitter)
		if spread > 0 {
			nops += rng.Intn(2*spread+1) - spread
		}
	}
	if nops < 1 {
		nops = 1
	}
	tx := Transaction{
		// PCs are synthetic but stable: type k of workload w gets PC
		// 0x4000_0000 + k. Distinct workloads reuse PCs harmlessly —
		// PCs only ever compare within one run.
		PC:  0x40000000 + uint64(rng.Intn(s.TxTypes)),
		Ops: make([]Op, 0, 2*nops),
	}
	for i := 0; i < nops; i++ {
		if s.ComputeMean > 0 {
			tx.Ops = append(tx.Ops, Compute(int32(rng.Geometric(s.ComputeMean))))
		}
		var line mem.LineAddr
		if rng.Bool(s.HotFrac) {
			line = s.hotLine(zipf.Draw())
		} else {
			line = s.privateLine(thread, rng.Intn(s.PrivateLines))
		}
		op := Read(line)
		if rng.Bool(s.WriteFrac) {
			op = Write(line)
		}
		tx.Ops = append(tx.Ops, op)
	}
	return tx
}
