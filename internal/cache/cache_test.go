package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/sim"
)

func geom(t *testing.T) *mem.Geometry {
	t.Helper()
	return mem.MustGeometry(64, 4, 1<<24)
}

func small(t *testing.T) *Cache {
	t.Helper()
	// 4 sets x 2 ways x 64B = 512B cache: tiny, to force evictions.
	return MustNew(geom(t), Config{SizeBytes: 512, Ways: 2})
}

func TestNewValidation(t *testing.T) {
	g := geom(t)
	cases := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{"valid 64KB 2-way", Config{64 << 10, 2}, false},
		{"zero ways", Config{64 << 10, 0}, true},
		{"size not divisible", Config{1000, 2}, true},
		{"sets not power of two", Config{3 * 2 * 64, 2}, true},
		{"direct mapped", Config{4096, 1}, false},
		{"fully-ish associative", Config{512, 8}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := New(g, c.cfg)
			if (err != nil) != c.wantErr {
				t.Fatalf("New(%+v) err=%v wantErr=%v", c.cfg, err, c.wantErr)
			}
		})
	}
}

func TestMissThenHit(t *testing.T) {
	c := small(t)
	hit, err := c.Access(100, false)
	if err != nil || hit {
		t.Fatalf("first access: hit=%v err=%v, want miss", hit, err)
	}
	hit, err = c.Access(100, false)
	if err != nil || !hit {
		t.Fatalf("second access: hit=%v err=%v, want hit", hit, err)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestSpeculativeBitsTracked(t *testing.T) {
	c := small(t)
	c.Access(1, false)
	c.Access(2, true)
	if !c.SpeculativelyRead(1) || c.SpeculativelyModified(1) {
		t.Fatal("line 1 should be SR only")
	}
	if !c.SpeculativelyModified(2) || c.SpeculativelyRead(2) {
		t.Fatal("line 2 should be SM only")
	}
	c.Access(1, true) // read then write: both bits
	if !c.SpeculativelyRead(1) || !c.SpeculativelyModified(1) {
		t.Fatal("line 1 should be SR+SM")
	}
	if c.ReadSetSize() != 1 || c.WriteSetSize() != 2 {
		t.Fatalf("set sizes rs=%d ws=%d", c.ReadSetSize(), c.WriteSetSize())
	}
}

func TestReadWriteSetsSortedAndDistinct(t *testing.T) {
	c := MustNew(geom(t), Config{SizeBytes: 64 << 10, Ways: 2})
	for _, l := range []mem.LineAddr{900, 3, 55, 3, 900} {
		c.Access(l, false)
	}
	rs := c.ReadSet()
	want := []mem.LineAddr{3, 55, 900}
	if len(rs) != len(want) {
		t.Fatalf("ReadSet %v, want %v", rs, want)
	}
	for i := range want {
		if rs[i] != want[i] {
			t.Fatalf("ReadSet %v, want %v", rs, want)
		}
	}
}

func TestLRUEviction(t *testing.T) {
	c := small(t) // 4 sets, 2 ways
	// Three lines in the same set (set = line % 4): 0, 4, 8.
	c.Access(0, false)
	c.Access(4, false)
	c.Access(0, false) // touch 0: 4 becomes LRU
	if _, err := c.Access(8, false); err != nil {
		t.Fatal(err)
	}
	if !c.Present(0) || c.Present(4) || !c.Present(8) {
		t.Fatal("wrong residency after eviction: want line 4 evicted")
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Fatalf("Evictions = %d, want 1", ev)
	}
}

func TestEvictionDropsSpecReadBit(t *testing.T) {
	c := small(t)
	c.Access(0, false)
	c.Access(4, false)
	c.Access(8, false) // evicts 0 (LRU)
	if c.SpeculativelyRead(0) {
		t.Fatal("evicted line still reports SR")
	}
	if c.ReadSetSize() != 2 {
		t.Fatalf("ReadSetSize %d, want 2", c.ReadSetSize())
	}
}

func TestSMLinesPinnedAgainstEviction(t *testing.T) {
	c := small(t)     // 2 ways per set
	c.Access(0, true) // SM
	c.Access(4, false)
	// New line in the same set must evict the clean line 4, not SM line 0.
	if _, err := c.Access(8, false); err != nil {
		t.Fatal(err)
	}
	if c.Present(4) || !c.Present(8) {
		t.Fatal("expected clean victim 4")
	}
	if !c.SpeculativelyModified(0) {
		t.Fatal("SM line was evicted")
	}
}

func TestOverflowWhenAllWaysSM(t *testing.T) {
	c := small(t)
	c.Access(0, true)
	c.Access(4, true)
	_, err := c.Access(8, true)
	if err != ErrOverflow {
		t.Fatalf("expected ErrOverflow, got %v", err)
	}
	if c.Stats().Overflows != 1 {
		t.Fatalf("overflow not counted: %+v", c.Stats())
	}
}

func TestClearSpeculativeCommitKeepsLines(t *testing.T) {
	c := small(t)
	c.Access(1, false)
	c.Access(2, true)
	c.ClearSpeculative(false)
	if !c.Present(1) || !c.Present(2) {
		t.Fatal("commit-clear dropped lines")
	}
	if c.SpeculativelyRead(1) || c.SpeculativelyModified(2) {
		t.Fatal("commit-clear left speculative bits")
	}
	if c.ReadSetSize() != 0 || c.WriteSetSize() != 0 {
		t.Fatal("commit-clear left set entries")
	}
}

func TestClearSpeculativeAbortDropsWrittenLines(t *testing.T) {
	c := small(t)
	c.Access(1, false)
	c.Access(2, true)
	c.ClearSpeculative(true)
	if !c.Present(1) {
		t.Fatal("abort-clear dropped a read-only line")
	}
	if c.Present(2) {
		t.Fatal("abort-clear kept a speculatively written line")
	}
	if c.SpeculativelyRead(1) || c.ReadSetSize() != 0 || c.WriteSetSize() != 0 {
		t.Fatal("abort-clear left speculative bits")
	}
	// The dropped slot is free again: refilling line 2 is a miss.
	if hit, err := c.Access(2, false); err != nil || hit {
		t.Fatalf("refill of dropped line 2: hit=%v err=%v, want miss", hit, err)
	}
}

// TestLineVersion pins the per-line commit version: it reads back while
// the line stays resident, including across a commit's clear and, for a
// read-only line, an abort's; it leaves with the line on eviction,
// Invalidate and an abort's drop of SM lines, and a refill starts it at 0.
func TestLineVersion(t *testing.T) {
	const l = mem.LineAddr(0) // lines 4 and 8 share its set in small()
	load := func(c *Cache) { c.Access(l, false); c.SetVersion(l, 7) }
	store := func(c *Cache) { c.Access(l, true); c.SetVersion(l, 7) }
	cases := []struct {
		name  string
		steps func(c *Cache)
		want  uint64
	}{
		{"resident line reads back", load, 7},
		{"evicted", func(c *Cache) { load(c); c.Access(4, false); c.Access(8, false) }, 0},
		{"evicted and refilled", func(c *Cache) {
			load(c)
			c.Access(4, false)
			c.Access(8, false)
			c.Access(l, false)
		}, 0},
		{"invalidated", func(c *Cache) { load(c); c.Invalidate(l) }, 0},
		{"invalidated and refilled", func(c *Cache) { load(c); c.Invalidate(l); c.Access(l, false) }, 0},
		{"abort drops SM line", func(c *Cache) { store(c); c.ClearSpeculative(true) }, 0},
		{"abort drop and refill", func(c *Cache) { store(c); c.ClearSpeculative(true); c.Access(l, false) }, 0},
		{"commit keeps SM line", func(c *Cache) { store(c); c.ClearSpeculative(false) }, 7},
		{"abort keeps SR line", func(c *Cache) { load(c); c.ClearSpeculative(true) }, 7},
		{"SetVersion on absent line is a no-op", func(c *Cache) { c.SetVersion(l, 7); c.Access(l, false) }, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := small(t)
			tc.steps(c)
			if got := c.Version(l); got != tc.want {
				t.Fatalf("Version = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestInvalidate(t *testing.T) {
	c := small(t)
	c.Access(1, false)
	present, sr := c.Invalidate(1)
	if !present || !sr {
		t.Fatalf("Invalidate(1) = (%v,%v), want (true,true)", present, sr)
	}
	if c.Present(1) {
		t.Fatal("line present after invalidation")
	}
	present, sr = c.Invalidate(1)
	if present || sr {
		t.Fatal("second invalidation reported presence")
	}
	if c.Stats().Invalidations != 1 {
		t.Fatalf("invalidation count %d", c.Stats().Invalidations)
	}
}

func TestInvalidateNonSpeculativeLine(t *testing.T) {
	c := small(t)
	c.Access(5, false)
	c.ClearSpeculative(false) // now resident but not speculative
	present, sr := c.Invalidate(5)
	if !present || sr {
		t.Fatalf("Invalidate = (%v,%v), want (true,false)", present, sr)
	}
}

// Property: after any access sequence, ReadSet/WriteSet agree with the
// per-line predicates and contain no duplicates.
func TestQuickSetConsistency(t *testing.T) {
	g := mem.MustGeometry(64, 4, 1<<24)
	f := func(seed uint64, opsRaw []byte) bool {
		c := MustNew(g, Config{SizeBytes: 2048, Ways: 2})
		rng := sim.NewRNG(seed, 1)
		for range opsRaw {
			line := mem.LineAddr(rng.Intn(64))
			write := rng.Bool(0.5)
			if _, err := c.Access(line, write); err != nil {
				// Overflow is legal under this tiny cache; the caller
				// (processor model) handles it. State must stay sane.
				continue
			}
		}
		rs, ws := c.ReadSet(), c.WriteSet()
		seen := map[mem.LineAddr]bool{}
		for _, l := range rs {
			if seen[l] || !c.SpeculativelyRead(l) {
				return false
			}
			seen[l] = true
		}
		seen = map[mem.LineAddr]bool{}
		for _, l := range ws {
			if seen[l] || !c.SpeculativelyModified(l) {
				return false
			}
			seen[l] = true
		}
		if len(rs) != c.ReadSetSize() || len(ws) != c.WriteSetSize() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: every access is tallied exactly once — successful ones as a
// hit or a completed miss, failed ones as a miss that overflowed.
func TestQuickStatsBalance(t *testing.T) {
	g := mem.MustGeometry(64, 4, 1<<24)
	f := func(seed uint64, n uint8) bool {
		c := MustNew(g, Config{SizeBytes: 1024, Ways: 2})
		rng := sim.NewRNG(seed, 2)
		ok := uint64(0)
		for i := 0; i < int(n); i++ {
			if _, err := c.Access(mem.LineAddr(rng.Intn(32)), rng.Bool(0.3)); err == nil {
				ok++
			}
		}
		st := c.Stats()
		return st.Hits+st.Misses == ok+st.Overflows
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
