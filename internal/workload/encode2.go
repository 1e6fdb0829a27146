package workload

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"unsafe"

	"repro/internal/mem"
)

// CGTRACE2 is the binary trace format: the shared on-disk trace store
// (internal/tracestore) keeps its entries in it, and cmd/tracegen
// archives generated workloads in it so they replay bit-identically
// across machines. It is a flat columnar layout: every column is one
// contiguous, 8-aligned array, so a decoder handed the whole file — in
// particular an mmap'd region — can materialize a read-only *Trace whose
// op arrays are slices aliasing the file bytes, with zero per-load
// copies of the op payload. Aliasing is safe because a Trace is
// immutable once built (see the Trace doc and tcc's
// TestRunLeavesTraceUntouched): the simulator only ever reads it.
//
// Layout (all integers little-endian, every section padded to 8 bytes):
//
//	off  0  magic     [8]byte "CGTRACE2"
//	off  8  checksum  uint64   FNV-1a 64 of every byte after this field
//	off 16  nameLen   uint32
//	off 20  threads   uint32
//	off 24  totalTxs  uint64
//	off 32  totalOps  uint64
//	off 40  name      [nameLen]byte, zero-padded to 8
//	        txCounts  [threads]uint32, zero-padded to 8   txs per thread
//	        interTx   [totalTxs]int32, zero-padded to 8   thread-major
//	        pcs       [totalTxs]uint64                    thread-major
//	        opCounts  [totalTxs]uint32, zero-padded to 8  thread-major
//	        ops       [totalOps]opRec                     thread/tx-major
//
// opRec is 24 bytes, the in-memory layout of Op frozen into the format:
// kind at offset 0, line (uint64 LE) at offset 8, cycles (int32 LE) at
// offset 16; all other bytes zero. The encoder always writes records
// field by field (so padding is deterministically zero and the same
// trace always produces the same bytes); the decoder aliases the record
// array as []Op directly when the host's Op layout and endianness match
// the format — the common case on amd64/arm64 — and falls back to a
// copying decode otherwise.

var traceMagic2 = [8]byte{'C', 'G', 'T', 'R', 'A', 'C', 'E', '2'}

const (
	v2HeaderSize = 40
	v2OpRecSize  = 24
	v2MaxName    = 1 << 16
	v2MaxThreads = 1 << 16
	v2MaxTxs     = 1 << 40
	v2MaxOps     = 1 << 40
)

// opsAliasable reports whether the host's in-memory Op layout coincides
// with the on-disk opRec layout, which is what permits the zero-copy
// aliasing decode. True on every little-endian platform where Op is
// {kind@0, line@8, cycles@16, size 24} — i.e. everywhere Go currently
// runs this code in practice; the copying fallback keeps exotic hosts
// correct.
var opsAliasable = func() bool {
	if unsafe.Sizeof(Op{}) != v2OpRecSize {
		return false
	}
	if unsafe.Offsetof(Op{}.Kind) != 0 ||
		unsafe.Offsetof(Op{}.Line) != 8 ||
		unsafe.Offsetof(Op{}.Cycles) != 16 {
		return false
	}
	probe := uint16(1)
	return *(*byte)(unsafe.Pointer(&probe)) == 1 // little-endian host
}()

// AliasingSupported reports whether DecodeV2Bytes runs the zero-copy
// aliasing decode on this host. Alloc-bounded tests of the mmap path
// skip when it is false.
func AliasingSupported() bool { return opsAliasable }

func pad8(n int) int { return (8 - n%8) % 8 }

// MarshalV2 serializes the trace in the CGTRACE2 columnar format and
// returns the complete file image. The same trace always marshals to the
// same bytes.
func MarshalV2(tr *Trace) ([]byte, error) {
	if len(tr.Name) > v2MaxName {
		return nil, fmt.Errorf("workload: encode2: name length %d exceeds limit", len(tr.Name))
	}
	if len(tr.Threads) == 0 || len(tr.Threads) > v2MaxThreads {
		return nil, fmt.Errorf("workload: encode2: thread count %d out of range", len(tr.Threads))
	}
	totalTxs, totalOps := 0, 0
	for ti := range tr.Threads {
		th := &tr.Threads[ti]
		if len(th.InterTx) != len(th.Txs) {
			return nil, fmt.Errorf("workload: encode2: thread %d inconsistent InterTx", ti)
		}
		totalTxs += len(th.Txs)
		for xi := range th.Txs {
			totalOps += len(th.Txs[xi].Ops)
		}
	}

	size := v2HeaderSize +
		len(tr.Name) + pad8(len(tr.Name)) +
		4*len(tr.Threads) + pad8(4*len(tr.Threads)) +
		4*totalTxs + pad8(4*totalTxs) + // interTx
		8*totalTxs + // pcs
		4*totalTxs + pad8(4*totalTxs) + // opCounts
		v2OpRecSize*totalOps
	buf := make([]byte, size)
	le := binary.LittleEndian

	copy(buf[0:8], traceMagic2[:])
	le.PutUint32(buf[16:], uint32(len(tr.Name)))
	le.PutUint32(buf[20:], uint32(len(tr.Threads)))
	le.PutUint64(buf[24:], uint64(totalTxs))
	le.PutUint64(buf[32:], uint64(totalOps))
	off := v2HeaderSize
	off += copy(buf[off:], tr.Name)
	off += pad8(len(tr.Name))

	for ti := range tr.Threads {
		le.PutUint32(buf[off+4*ti:], uint32(len(tr.Threads[ti].Txs)))
	}
	off += 4*len(tr.Threads) + pad8(4*len(tr.Threads))

	interOff := off
	pcOff := interOff + 4*totalTxs + pad8(4*totalTxs)
	cntOff := pcOff + 8*totalTxs
	opOff := cntOff + 4*totalTxs + pad8(4*totalTxs)
	tx := 0
	for ti := range tr.Threads {
		th := &tr.Threads[ti]
		for xi := range th.Txs {
			le.PutUint32(buf[interOff+4*tx:], uint32(th.InterTx[xi]))
			le.PutUint64(buf[pcOff+8*tx:], th.Txs[xi].PC)
			le.PutUint32(buf[cntOff+4*tx:], uint32(len(th.Txs[xi].Ops)))
			tx++
			for _, op := range th.Txs[xi].Ops {
				switch op.Kind {
				case OpRead, OpWrite, OpCompute:
				default:
					return nil, fmt.Errorf("workload: encode2: bad op kind %d", op.Kind)
				}
				rec := buf[opOff : opOff+v2OpRecSize]
				rec[0] = byte(op.Kind)
				le.PutUint64(rec[8:], uint64(op.Line))
				le.PutUint32(rec[16:], uint32(op.Cycles))
				opOff += v2OpRecSize
			}
		}
	}

	h := fnv.New64a()
	h.Write(buf[16:])
	le.PutUint64(buf[8:], h.Sum64())
	return buf, nil
}

// EncodeV2 writes the trace to w in the CGTRACE2 columnar format.
func EncodeV2(w io.Writer, tr *Trace) error {
	buf, err := MarshalV2(tr)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// DecodeV2Bytes decodes a complete CGTRACE2 file image. When the host's
// Op layout matches the on-disk record layout and data is 8-aligned, the
// returned trace's Ops and InterTx slices alias data directly — zero
// copies of the op payload — so the caller must keep data valid (and
// unmodified) for the trace's whole lifetime; an mmap'd region stays
// valid until munmap. Every structural defect — truncation, bad magic,
// a checksum mismatch, counts that disagree with the file size — is
// reported as an error wrapping ErrCorrupt.
func DecodeV2Bytes(data []byte) (*Trace, error) {
	if len(data) < v2HeaderSize {
		return nil, corruptf("decode2: %d-byte input shorter than the %d-byte header", len(data), v2HeaderSize)
	}
	if [8]byte(data[0:8]) != traceMagic2 {
		return nil, corruptf("bad trace magic %q", data[0:8])
	}
	le := binary.LittleEndian
	h := fnv.New64a()
	h.Write(data[16:])
	if sum := h.Sum64(); sum != le.Uint64(data[8:]) {
		return nil, corruptf("decode2: checksum mismatch (file %#x, computed %#x)", le.Uint64(data[8:]), sum)
	}
	nameLen := int(le.Uint32(data[16:]))
	nThreads := int(le.Uint32(data[20:]))
	totalTxs := le.Uint64(data[24:])
	totalOps := le.Uint64(data[32:])
	switch {
	case nameLen > v2MaxName:
		return nil, corruptf("decode2: name length %d exceeds limit", nameLen)
	case nThreads == 0 || nThreads > v2MaxThreads:
		return nil, corruptf("decode2: thread count %d out of range", nThreads)
	case totalTxs > v2MaxTxs:
		return nil, corruptf("decode2: transaction count %d out of range", totalTxs)
	case totalOps > v2MaxOps:
		return nil, corruptf("decode2: op count %d out of range", totalOps)
	}
	nTxs, nOps := int(totalTxs), int(totalOps)
	// Section offsets, validated as a whole against the input length
	// before any array is touched: a lying count can never index past
	// the buffer or size an allocation from unread bytes.
	nameOff := v2HeaderSize
	txCntOff := nameOff + nameLen + pad8(nameLen)
	interOff := txCntOff + 4*nThreads + pad8(4*nThreads)
	pcOff := interOff + 4*nTxs + pad8(4*nTxs)
	cntOff := pcOff + 8*nTxs
	opOff := cntOff + 4*nTxs + pad8(4*nTxs)
	end := opOff + v2OpRecSize*nOps
	if end != len(data) {
		return nil, corruptf("decode2: counts require %d bytes, input has %d", end, len(data))
	}

	txCounts := data[txCntOff:interOff]
	var sumTxs uint64
	for t := 0; t < nThreads; t++ {
		sumTxs += uint64(le.Uint32(txCounts[4*t:]))
	}
	if sumTxs != totalTxs {
		return nil, corruptf("decode2: per-thread tx counts sum to %d, header says %d", sumTxs, totalTxs)
	}
	opCounts := data[cntOff : cntOff+4*nTxs]
	var sumOps uint64
	for x := 0; x < nTxs; x++ {
		sumOps += uint64(le.Uint32(opCounts[4*x:]))
	}
	if sumOps != totalOps {
		return nil, corruptf("decode2: per-tx op counts sum to %d, header says %d", sumOps, totalOps)
	}
	// The format is canonical — every padding byte is zero — so that one
	// trace has exactly one file image (the content address depends on
	// it, and an accepted input always re-encodes byte-identically).
	for _, span := range [][2]int{
		{nameOff + nameLen, txCntOff},
		{txCntOff + 4*nThreads, interOff},
		{interOff + 4*nTxs, pcOff},
		{cntOff + 4*nTxs, opOff},
	} {
		for i := span[0]; i < span[1]; i++ {
			if data[i] != 0 {
				return nil, corruptf("decode2: nonzero padding at offset %d", i)
			}
		}
	}
	opBytes := data[opOff:end]
	for o := 0; o < nOps; o++ {
		rec := opBytes[o*v2OpRecSize : (o+1)*v2OpRecSize]
		if k := OpKind(rec[0]); k != OpRead && k != OpWrite && k != OpCompute {
			return nil, corruptf("decode2: bad op kind %d at op %d", k, o)
		}
		if le.Uint64(rec[0:8])>>8 != 0 || le.Uint32(rec[20:24]) != 0 {
			return nil, corruptf("decode2: nonzero padding in op %d", o)
		}
	}

	alias := opsAliasable && (len(data) == 0 || uintptr(unsafe.Pointer(&data[0]))%8 == 0)
	var ops []Op
	var inter []int32
	if alias {
		if nOps > 0 {
			ops = unsafe.Slice((*Op)(unsafe.Pointer(&opBytes[0])), nOps)
		}
		if nTxs > 0 {
			inter = unsafe.Slice((*int32)(unsafe.Pointer(&data[interOff])), nTxs)
		}
	} else {
		ops = make([]Op, nOps)
		for o := range ops {
			rec := opBytes[o*v2OpRecSize:]
			ops[o] = Op{
				Kind:   OpKind(rec[0]),
				Line:   mem.LineAddr(le.Uint64(rec[8:])),
				Cycles: int32(le.Uint32(rec[16:])),
			}
		}
		inter = make([]int32, nTxs)
		for x := range inter {
			inter[x] = int32(le.Uint32(data[interOff+4*x:]))
		}
	}

	tr := &Trace{
		Name:    string(data[nameOff : nameOff+nameLen]),
		Threads: make([]Thread, nThreads),
	}
	// One transaction-header arena for the whole trace: the per-thread
	// Txs slices subslice it, so decoding allocates O(1) slices however
	// many threads and transactions the trace has.
	txs := make([]Transaction, nTxs)
	tx, op := 0, 0
	for t := 0; t < nThreads; t++ {
		n := int(le.Uint32(txCounts[4*t:]))
		th := &tr.Threads[t]
		th.Txs = txs[tx : tx+n : tx+n]
		th.InterTx = inter[tx : tx+n : tx+n]
		for x := 0; x < n; x++ {
			k := int(le.Uint32(opCounts[4*(tx+x):]))
			txs[tx+x].PC = le.Uint64(data[pcOff+8*(tx+x):])
			txs[tx+x].Ops = ops[op : op+k : op+k]
			op += k
		}
		tx += n
	}
	return tr, nil
}
