package mem

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzLineSet differentially tests LineSet against a map plus an
// insertion-order slice. The input is an op stream of 3-byte records: the
// first byte's low seven bits pick Add, Find or Clear and its top bit the
// line space, and the other two bytes give the line. The narrow space (64
// lines) makes repeats and hits common; the wide one spreads lines over
// 64 bits, so the table grows through several doublings in one epoch.
func FuzzLineSet(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 2, 0, 1, 1, 0, 2, 0, 0, 0, 1, 0})
	// The zero value: Find, then Clear before the first Add.
	f.Add([]byte{1, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0})
	// 300 wide adds grow the 16-slot start through six doublings, then
	// 300 finds of the same lines.
	seq := make([]byte, 0, 3*600)
	for op := byte(0x80); op <= 0x81; op++ {
		for i := 0; i < 300; i++ {
			seq = append(seq, op, byte(i), byte(i>>8))
		}
	}
	f.Add(seq)
	f.Fuzz(func(t *testing.T, ops []byte) {
		var s LineSet
		model := map[LineAddr]int{}
		var order []LineAddr
		for i := 0; i+3 <= len(ops); i += 3 {
			op, v := ops[i], uint64(binary.LittleEndian.Uint16(ops[i+1:]))
			l := LineAddr(v % 64)
			if op&0x80 != 0 {
				l = LineAddr(v * 0x9E3779B97F4A7C15) // spread over 64 bits
			}
			switch (op & 0x7f) % 3 {
			case 0:
				idx, added := s.Add(l)
				want, ok := model[l]
				if !ok {
					want = len(order)
					model[l] = want
					order = append(order, l)
				}
				if idx != want || added == ok {
					t.Fatalf("op %d: Add(%d) = (%d, %v), model says (%d, %v)", i/3, l, idx, added, want, !ok)
				}
			case 1:
				idx, ok := s.Find(l)
				want, wok := model[l]
				if ok != wok || (ok && idx != want) {
					t.Fatalf("op %d: Find(%d) = (%d, %v), model says (%d, %v)", i/3, l, idx, ok, want, wok)
				}
			case 2:
				s.Clear()
				clear(model)
				order = order[:0]
			}
			if s.Len() != len(order) {
				t.Fatalf("op %d: Len = %d, model says %d", i/3, s.Len(), len(order))
			}
		}
		keys := s.Keys()
		if len(keys) != len(order) {
			t.Fatalf("Keys has %d lines, model %d", len(keys), len(order))
		}
		for i, l := range order {
			if keys[i] != l {
				t.Fatalf("Keys()[%d] = %d, inserted %d", i, keys[i], l)
			}
			if idx, ok := s.Find(l); !ok || idx != i {
				t.Fatalf("Find(%d) = (%d, %v) after the run, want (%d, true)", l, idx, ok, i)
			}
		}
	})
}

// TestLineSetClearAcrossEpochWrap drives the epoch stamp to its maximum
// and clears once more: the wrap must still empty the set, even for line
// 0, whose never-written slots carry stamp 0 with key 0.
func TestLineSetClearAcrossEpochWrap(t *testing.T) {
	var s LineSet
	for i := 0; i < 10; i++ {
		s.Add(LineAddr(i))
	}
	// Restamp the live slots with the last epoch before the wrap.
	for i := range s.slots {
		if s.slots[i].epoch == s.epoch {
			s.slots[i].epoch = math.MaxUint32
		}
	}
	s.epoch = math.MaxUint32
	if idx, ok := s.Find(3); !ok || idx != 3 {
		t.Fatalf("Find(3) after restamp = (%d, %v)", idx, ok)
	}
	s.Clear()
	if s.epoch == 0 {
		t.Fatal("epoch wrapped to 0, the stamp of never-written slots")
	}
	if s.Len() != 0 {
		t.Fatalf("Len after wrapping Clear = %d", s.Len())
	}
	// A non-empty set, so Find has to consult the table.
	if idx, added := s.Add(100); idx != 0 || !added {
		t.Fatalf("Add(100) after wrap = (%d, %v), want (0, true)", idx, added)
	}
	for i := 0; i < 10; i++ {
		if _, ok := s.Find(LineAddr(i)); ok {
			t.Fatalf("line %d survived the wrapping Clear", i)
		}
	}
	for i := 9; i >= 0; i-- {
		if idx, added := s.Add(LineAddr(i)); idx != 10-i || !added {
			t.Fatalf("Add(%d) after wrap = (%d, %v), want (%d, true)", i, idx, added, 10-i)
		}
	}
}
