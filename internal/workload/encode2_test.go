package workload

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/sim"
)

func TestV2RoundTrip(t *testing.T) {
	s := validSpec()
	tr, err := s.Generate(4, 42)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := MarshalV2(tr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeV2Bytes(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name {
		t.Fatalf("name %q, want %q", got.Name, tr.Name)
	}
	if !reflect.DeepEqual(got.Threads, tr.Threads) {
		t.Fatal("threads not preserved by round trip")
	}
}

// The format is the content address: the same trace must always marshal
// to the same bytes, and re-encoding a decoded trace must reproduce the
// original file image exactly.
func TestV2Deterministic(t *testing.T) {
	s := validSpec()
	tr, err := s.Generate(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	a, err := MarshalV2(tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarshalV2(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two marshals of one trace differ")
	}
	got, err := DecodeV2Bytes(a)
	if err != nil {
		t.Fatal(err)
	}
	c, err := MarshalV2(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, c) {
		t.Fatal("re-encoding a decoded trace changed the bytes")
	}
}

// fixV2Checksum recomputes the header checksum after a test mutated the
// file image, so corruption tests exercise the validation they target
// instead of tripping the checksum first.
func fixV2Checksum(buf []byte) {
	h := fnv.New64a()
	h.Write(buf[16:])
	binary.LittleEndian.PutUint64(buf[8:], h.Sum64())
}

func TestV2RejectsCorruption(t *testing.T) {
	s := validSpec()
	tr, err := s.Generate(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	full, err := MarshalV2(tr)
	if err != nil {
		t.Fatal(err)
	}

	// Every strict prefix must fail cleanly, never panic.
	for _, cut := range []int{0, 7, 8, 16, 39, 40, len(full) / 2, len(full) - 1} {
		if _, err := DecodeV2Bytes(full[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: err = %v, want ErrCorrupt", cut, err)
		}
	}

	// A bit flip anywhere in the body trips the checksum.
	for _, pos := range []int{16, 41, len(full) / 2, len(full) - 1} {
		mut := bytes.Clone(full)
		mut[pos] ^= 0x40
		if _, err := DecodeV2Bytes(mut); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit flip at %d: err = %v, want ErrCorrupt", pos, err)
		}
	}

	// Bad magic.
	mut := bytes.Clone(full)
	copy(mut, "NOTTRACE")
	if _, err := DecodeV2Bytes(mut); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: err = %v, want ErrCorrupt", err)
	}

	// A lying op count with a valid checksum must be rejected by the
	// size arithmetic, not trusted into an allocation or an index.
	mut = bytes.Clone(full)
	binary.LittleEndian.PutUint64(mut[32:], 1<<30)
	fixV2Checksum(mut)
	if _, err := DecodeV2Bytes(mut); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("lying op count: err = %v, want ErrCorrupt", err)
	}

	// An op kind outside the enum, checksum fixed up.
	_, err = DecodeV2Bytes(full) // locate the op section via a clean decode
	if err != nil {
		t.Fatal(err)
	}
	mut = bytes.Clone(full)
	mut[len(mut)-v2OpRecSize] = 99
	fixV2Checksum(mut)
	if _, err := DecodeV2Bytes(mut); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad op kind: err = %v, want ErrCorrupt", err)
	}
}

// TestV2DecodeAllocBounded pins the zero-copy contract of the aliasing
// decode: however many operations the trace holds, decoding allocates
// only the fixed trace skeleton (trace, thread table, transaction
// arena, name) — never a per-transaction or per-op copy of the payload.
func TestV2DecodeAllocBounded(t *testing.T) {
	if !opsAliasable {
		t.Skip("host Op layout does not permit the aliasing decode")
	}
	s := validSpec()
	s.TotalTxs = 4096
	tr, err := s.Generate(4, 42)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := MarshalV2(tr)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(16, func() {
		if _, err := DecodeV2Bytes(buf); err != nil {
			t.Fatal(err)
		}
	})
	// 4 threads x 1024 txs: a copying decode pays thousands of
	// allocations; the aliasing decode pays a handful.
	if allocs > 16 {
		t.Fatalf("aliasing decode allocated %v times per load, want <= 16", allocs)
	}
}

// TestEncodeDecodeRoundTrip drives the archive path cmd/tracegen and
// cmd/tccsim use: EncodeV2 writes the file, DecodeV2Bytes reads it whole.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := validSpec()
	tr, err := s.Generate(4, 42)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeV2(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeV2Bytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || !reflect.DeepEqual(got.Threads, tr.Threads) {
		t.Fatal("trace not preserved by the file round trip")
	}
}

// TestDecodeRejectsBadMagic: a foreign file, including one in the
// previous trace format (its magic differs only in the version digit),
// is a clean bad-magic error, never a misparse.
func TestDecodeRejectsBadMagic(t *testing.T) {
	s := validSpec()
	tr, err := s.Generate(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	full, err := MarshalV2(tr)
	if err != nil {
		t.Fatal(err)
	}
	foreign := bytes.Clone(full)
	copy(foreign, "NOTTRACE")
	previous := bytes.Clone(full)
	previous[7] = '1'
	for _, data := range [][]byte{foreign, previous} {
		_, err := DecodeV2Bytes(data)
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "bad trace magic") {
			t.Fatalf("magic %q: err = %v, want a bad-magic ErrCorrupt", data[:8], err)
		}
	}
}

// TestDecodeRejectsAbsurdCounts sets each header count past its limit,
// checksum fixed up: the range checks must reject it before any offset
// arithmetic can overflow.
func TestDecodeRejectsAbsurdCounts(t *testing.T) {
	s := validSpec()
	tr, err := s.Generate(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	full, err := MarshalV2(tr)
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	for name, lie := range map[string]func([]byte){
		"name length":  func(b []byte) { le.PutUint32(b[16:], 1<<31) },
		"zero threads": func(b []byte) { le.PutUint32(b[20:], 0) },
		"threads":      func(b []byte) { le.PutUint32(b[20:], v2MaxThreads+1) },
		"txs":          func(b []byte) { le.PutUint64(b[24:], 1<<63) },
		"ops":          func(b []byte) { le.PutUint64(b[32:], 1<<62) },
	} {
		mut := bytes.Clone(full)
		lie(mut)
		fixV2Checksum(mut)
		if _, err := DecodeV2Bytes(mut); !errors.Is(err, ErrCorrupt) {
			t.Errorf("absurd %s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestEncodeRejectsInconsistentThread(t *testing.T) {
	tr := &Trace{Name: "bad", Threads: []Thread{{
		Txs:     []Transaction{{PC: 1, Ops: []Op{{Kind: OpRead, Line: 1}}}},
		InterTx: nil, // length mismatch
	}}}
	if _, err := MarshalV2(tr); err == nil {
		t.Fatal("inconsistent thread encoded")
	}
}

func TestEncodeRejectsBadOpKind(t *testing.T) {
	tr := &Trace{Name: "bad", Threads: []Thread{{
		Txs:     []Transaction{{PC: 1, Ops: []Op{{Kind: 77}}}},
		InterTx: []int32{1},
	}}}
	if _, err := MarshalV2(tr); err == nil {
		t.Fatal("bad op kind encoded")
	}
}

// Property: random hand-built traces, compute ops included, survive the
// round trip bit-exactly.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed uint64, nThreads, nTxs uint8) bool {
		rng := sim.NewRNG(seed, 3)
		threads := int(nThreads%4) + 1
		txs := int(nTxs%8) + 1
		tr := &Trace{Name: "q"}
		for i := 0; i < threads; i++ {
			th := Thread{}
			for x := 0; x < txs; x++ {
				tx := Transaction{PC: rng.Uint64()}
				for o := 0; o < rng.Intn(6)+1; o++ {
					switch rng.Intn(3) {
					case 0:
						tx.Ops = append(tx.Ops, Op{Kind: OpRead, Line: mem.LineAddr(rng.Intn(1 << 20))})
					case 1:
						tx.Ops = append(tx.Ops, Op{Kind: OpWrite, Line: mem.LineAddr(rng.Intn(1 << 20))})
					default:
						tx.Ops = append(tx.Ops, Op{Kind: OpCompute, Cycles: int32(rng.Intn(100) + 1)})
					}
				}
				th.Txs = append(th.Txs, tx)
				th.InterTx = append(th.InterTx, int32(rng.Intn(50)))
			}
			tr.Threads = append(tr.Threads, th)
		}
		buf, err := MarshalV2(tr)
		if err != nil {
			return false
		}
		got, err := DecodeV2Bytes(buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got.Threads, tr.Threads) && got.Name == tr.Name
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
