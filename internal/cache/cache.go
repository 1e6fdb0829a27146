// Package cache models the private L1 data cache of a TCC processor:
// set-associative with LRU replacement, extended with the speculative-read
// (SR) and speculative-modified (SM) bits that TCC uses for conflict
// detection and versioning.
//
// TCC is lazy/lazy: transactional reads mark SR, transactional writes are
// buffered in the cache with SM set and become visible to the rest of the
// system only at commit. An abort flash-clears all speculative state. A
// line with SM set must never be silently evicted mid-transaction — in
// real TCC hardware this causes a transaction overflow; the model surfaces
// it as ErrOverflow so the processor can serialize (the paper's workloads
// fit in L1, but the condition must still be handled).
package cache

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/mem"
)

// ErrOverflow is returned when a speculatively-modified line would have to
// be evicted to make room. TCC cannot spill speculative state, so the
// transaction must be aborted and retried in a serialized mode.
var ErrOverflow = errors.New("cache: speculative state overflow")

// line is one cache line's metadata. Data contents are not modeled — the
// simulator tracks timing and coherence, not values — but the commit
// version of the data is: the owner records it with SetVersion, and a
// refill of the slot starts it over at 0.
type line struct {
	tag     mem.LineAddr
	version uint64
	valid   bool
	sr      bool // speculatively read this transaction
	sm      bool // speculatively modified this transaction
	lru     uint64
}

// Stats counts cache events for reporting.
type Stats struct {
	Hits          uint64
	Misses        uint64
	Evictions     uint64
	Invalidations uint64
	Overflows     uint64
}

// Cache is a set-associative L1 data cache with speculative bits.
type Cache struct {
	geom  *mem.Geometry
	sets  int
	ways  int
	lines []line // sets*ways, row-major by set
	tick  uint64 // LRU clock
	stats Stats
	// spec lists the slots that gained an SR or SM bit this transaction,
	// so clearing the bits visits the footprint, not the whole cache. A
	// slot refilled mid-transaction can appear twice; revisiting it is
	// harmless. nRead and nMod count the lines carrying each bit.
	spec        []int32
	nRead, nMod int
}

// Config describes a cache shape.
type Config struct {
	SizeBytes int // total capacity
	Ways      int // associativity
}

// New builds a cache over the given geometry. Size must be a multiple of
// ways*lineBytes and the resulting set count must be a power of two.
func New(geom *mem.Geometry, cfg Config) (*Cache, error) {
	lb := int(geom.LineBytes())
	if cfg.Ways <= 0 {
		return nil, fmt.Errorf("cache: ways %d must be positive", cfg.Ways)
	}
	if cfg.SizeBytes <= 0 || cfg.SizeBytes%(cfg.Ways*lb) != 0 {
		return nil, fmt.Errorf("cache: size %d not divisible by ways*line (%d*%d)", cfg.SizeBytes, cfg.Ways, lb)
	}
	sets := cfg.SizeBytes / (cfg.Ways * lb)
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d is not a power of two", sets)
	}
	return &Cache{
		geom:  geom,
		sets:  sets,
		ways:  cfg.Ways,
		lines: make([]line, sets*cfg.Ways),
	}, nil
}

// MustNew is New that panics on error.
func MustNew(geom *mem.Geometry, cfg Config) *Cache {
	c, err := New(geom, cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

func (c *Cache) setOf(l mem.LineAddr) int {
	return int(uint64(l) % uint64(c.sets))
}

// slot returns the index of the valid line holding l, or -1.
func (c *Cache) slot(l mem.LineAddr) int {
	base := c.setOf(l) * c.ways
	for i := base; i < base+c.ways; i++ {
		if ln := &c.lines[i]; ln.valid && ln.tag == l {
			return i
		}
	}
	return -1
}

func (c *Cache) find(l mem.LineAddr) *line {
	if i := c.slot(l); i >= 0 {
		return &c.lines[i]
	}
	return nil
}

// Present reports whether the line is valid in the cache.
func (c *Cache) Present(l mem.LineAddr) bool { return c.find(l) != nil }

// Access performs a transactional load (write=false) or store (write=true)
// of the line and reports whether it hit. On a hit it updates LRU and
// speculative bits. On a miss it allocates the line, evicting the LRU way
// (never an SM line: if all ways in the set hold SM lines the access
// fails with ErrOverflow).
func (c *Cache) Access(l mem.LineAddr, write bool) (hit bool, err error) {
	c.tick++
	if i := c.slot(l); i >= 0 {
		c.stats.Hits++
		c.lines[i].lru = c.tick
		c.markSpec(i, write)
		return true, nil
	}
	c.stats.Misses++
	set := c.setOf(l)
	base := set * c.ways
	victim := -1
	var victimLRU uint64 = ^uint64(0)
	for i := 0; i < c.ways; i++ {
		ln := &c.lines[base+i]
		if !ln.valid {
			victim = i
			victimLRU = 0
			break
		}
		if ln.sm {
			continue // cannot evict speculative dirty state
		}
		if ln.lru < victimLRU {
			victim = i
			victimLRU = ln.lru
		}
	}
	if victim < 0 {
		c.stats.Overflows++
		return false, ErrOverflow
	}
	ln := &c.lines[base+victim]
	if ln.valid {
		c.stats.Evictions++
		c.dropSpec(ln)
	}
	*ln = line{tag: l, valid: true, lru: c.tick}
	c.markSpec(base+victim, write)
	return false, nil
}

func (c *Cache) markSpec(i int, write bool) {
	ln := &c.lines[i]
	if !ln.sr && !ln.sm {
		c.spec = append(c.spec, int32(i))
	}
	if write {
		if !ln.sm {
			ln.sm = true
			c.nMod++
		}
	} else if !ln.sr {
		ln.sr = true
		c.nRead++
	}
}

func (c *Cache) dropSpec(ln *line) {
	if ln.sr {
		ln.sr = false
		c.nRead--
	}
	if ln.sm {
		ln.sm = false
		c.nMod--
	}
}

// SpeculativelyRead reports whether the line carries the SR bit.
func (c *Cache) SpeculativelyRead(l mem.LineAddr) bool {
	ln := c.find(l)
	return ln != nil && ln.sr
}

// SpeculativelyModified reports whether the line carries the SM bit.
func (c *Cache) SpeculativelyModified(l mem.LineAddr) bool {
	ln := c.find(l)
	return ln != nil && ln.sm
}

// Version returns the commit version recorded for a resident line: 0 if
// the line is absent or nothing was recorded since it was filled.
func (c *Cache) Version(l mem.LineAddr) uint64 {
	if ln := c.find(l); ln != nil {
		return ln.version
	}
	return 0
}

// SetVersion records the commit version of the data a resident line
// holds. It is a no-op for an absent line. The version leaves with the
// line: eviction, Invalidate and an abort's drop of SM lines all forget
// it, because a refilled slot starts over at 0.
func (c *Cache) SetVersion(l mem.LineAddr, v uint64) {
	if ln := c.find(l); ln != nil {
		ln.version = v
	}
}

// ReadSet returns the lines currently marked SR, in ascending line order.
// The protocol never asks for it (the processor keeps its own line sets);
// it serves tests and inspection.
func (c *Cache) ReadSet() []mem.LineAddr { return c.marked(false) }

// WriteSet returns the lines currently marked SM, in ascending line order.
func (c *Cache) WriteSet() []mem.LineAddr { return c.marked(true) }

// marked lists the lines carrying the SM bit (sm) or the SR bit (!sm),
// sorted and without the repeats a refilled slot leaves in spec.
func (c *Cache) marked(sm bool) []mem.LineAddr {
	var out []mem.LineAddr
	for _, i := range c.spec {
		if ln := &c.lines[i]; (sm && ln.sm) || (!sm && ln.sr) {
			out = append(out, ln.tag)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// ReadSetSize returns the number of SR lines.
func (c *Cache) ReadSetSize() int { return c.nRead }

// WriteSetSize returns the number of SM lines.
func (c *Cache) WriteSetSize() int { return c.nMod }

// ClearSpeculative flash-clears all SR/SM bits. Called on abort (discarding
// the write-set: the lines' data is stale so they are also invalidated, as
// TCC buffers new values in place, and their versions go with them) and
// on commit (keeping the data: lines stay valid with their versions, bits
// clear).
//
// Only the slots listed in spec are visited — every slot holding a bit is
// there — so the cost scales with the transaction footprint, not the
// cache size.
func (c *Cache) ClearSpeculative(abort bool) {
	for _, i := range c.spec {
		ln := &c.lines[i]
		if abort && ln.sm {
			ln.valid = false // speculative data never became architectural
		}
		ln.sr, ln.sm = false, false
	}
	c.spec = c.spec[:0]
	c.nRead, c.nMod = 0, 0
}

// Reset returns the cache to its post-construction state — every line
// invalid, LRU clock at zero, counters and speculative bits cleared —
// keeping the line array and the slot list's storage, so a reused cache
// warms up without reallocating.
func (c *Cache) Reset() {
	clear(c.lines)
	c.tick = 0
	c.stats = Stats{}
	c.spec = c.spec[:0]
	c.nRead, c.nMod = 0, 0
}

// Invalidate drops the line if present (coherence invalidation from a
// remote commit). It returns whether the line was present and whether it
// was speculatively read — the condition under which the owning processor
// must abort.
func (c *Cache) Invalidate(l mem.LineAddr) (present, wasSpecRead bool) {
	ln := c.find(l)
	if ln == nil {
		return false, false
	}
	c.stats.Invalidations++
	wasSpecRead = ln.sr
	c.dropSpec(ln)
	ln.valid = false
	return true, wasSpecRead
}
