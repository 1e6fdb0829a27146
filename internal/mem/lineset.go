package mem

import "math/bits"

// LineSet is a set of cache lines for the simulator's per-event paths:
// open addressing with linear probing over a power-of-two table, at most
// half full, so a lookup is a multiply, a shift and a short probe run,
// with no runtime map machinery behind it.
//
// Members are numbered densely in insertion order. Add returns a line's
// index, which stays fixed until the next Clear, so callers keep per-line
// values in parallel slices indexed by it; Keys lists the members in the
// same order, so iterating a set is deterministic by construction.
//
// Clear is O(1): every slot carries the epoch it was written in, and a
// slot is live only while its stamp equals the set's current epoch, so
// bumping the epoch empties the table without touching it. The zero value
// is an empty set ready to use.
type LineSet struct {
	slots []lineSlot
	keys  []LineAddr
	epoch uint32
	shift uint // 64 - log2(len(slots)): the hash keeps the product's top bits
}

// lineSlot is one table entry: a member and its dense index, live while
// epoch matches the set's.
type lineSlot struct {
	line  LineAddr
	index int32
	epoch uint32
}

// minLineSlots is the table size a set starts at on its first Add.
const minLineSlots = 16

// Len returns the number of members.
func (s *LineSet) Len() int { return len(s.keys) }

// Keys returns the members in insertion order: Keys()[i] is the line Add
// numbered i. The slice aliases the set's storage; it is valid until the
// next Add or Clear and must not be modified.
func (s *LineSet) Keys() []LineAddr { return s.keys }

// Find returns l's dense index and whether l is a member.
func (s *LineSet) Find(l LineAddr) (int, bool) {
	if len(s.keys) == 0 {
		return 0, false
	}
	sl := &s.slots[s.probe(l)]
	if sl.epoch != s.epoch {
		return 0, false
	}
	return int(sl.index), true
}

// Add inserts l if it is not a member yet. It returns l's dense index and
// whether this call added it; a new member gets index Len()-1.
func (s *LineSet) Add(l LineAddr) (index int, added bool) {
	if s.slots != nil {
		i := s.probe(l)
		if sl := &s.slots[i]; sl.epoch == s.epoch {
			return int(sl.index), false
		}
		// Keep the load at most one half, so probe runs stay short.
		if 2*(len(s.keys)+1) <= len(s.slots) {
			return s.insert(i, l), true
		}
	}
	s.grow()
	return s.insert(s.probe(l), l), true
}

// Clear empties the set in O(1), keeping its storage.
func (s *LineSet) Clear() {
	s.keys = s.keys[:0]
	s.epoch++
	if s.epoch == 0 {
		// The stamp wrapped: slots written 2^32 epochs ago would look live
		// again, so wipe them once and restart the count.
		clear(s.slots)
		s.epoch = 1
	}
}

// probe returns the slot holding l or, if l is not a member, the first
// dead slot on l's probe path. The table is never full, so it stops.
func (s *LineSet) probe(l LineAddr) int {
	mask := len(s.slots) - 1
	i := int((uint64(l) * 0x9E3779B97F4A7C15) >> s.shift)
	for {
		sl := &s.slots[i]
		if sl.epoch != s.epoch || sl.line == l {
			return i
		}
		i = (i + 1) & mask
	}
}

func (s *LineSet) insert(i int, l LineAddr) int {
	n := len(s.keys)
	s.slots[i] = lineSlot{line: l, index: int32(n), epoch: s.epoch}
	s.keys = append(s.keys, l)
	return n
}

// grow doubles the table (or allocates the first one) and re-inserts the
// members at their existing indices.
func (s *LineSet) grow() {
	n := 2 * len(s.slots)
	if n == 0 {
		n = minLineSlots
	}
	if s.epoch == 0 {
		s.epoch = 1 // zero-valued slots must never look live
	}
	s.slots = make([]lineSlot, n)
	s.shift = 64 - uint(bits.TrailingZeros(uint(n)))
	for idx, l := range s.keys {
		s.slots[s.probe(l)] = lineSlot{line: l, index: int32(idx), epoch: s.epoch}
	}
}
