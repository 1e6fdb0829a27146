// Package mem defines the physical-memory geometry shared by the cache,
// directory and processor models: addresses, cache-line arithmetic, and the
// interleaving of lines across directories. It also holds LineSet, the
// line index the directory and processor hot paths share.
//
// The baseline system (paper Table II) is a distributed-shared-memory
// machine in the style of Scalable TCC: physical memory is split into
// segments, each owned by a directory; a line's home directory is a pure
// function of its address.
package mem

import "fmt"

// Addr is a physical byte address.
type Addr uint64

// LineAddr identifies a cache line (the address with the offset bits
// stripped). All coherence and conflict detection in TCC happens at line
// granularity.
type LineAddr uint64

// Geometry captures the line size and directory interleaving of the
// machine. It is immutable after construction.
type Geometry struct {
	lineBytes  uint64
	lineShift  uint
	numDirs    int
	memBytes   uint64
	totalLines uint64
}

// NewGeometry builds a Geometry. lineBytes must be a power of two;
// numDirs must be positive; memBytes must be a multiple of lineBytes.
func NewGeometry(lineBytes uint64, numDirs int, memBytes uint64) (*Geometry, error) {
	if lineBytes == 0 || lineBytes&(lineBytes-1) != 0 {
		return nil, fmt.Errorf("mem: line size %d is not a power of two", lineBytes)
	}
	if numDirs <= 0 {
		return nil, fmt.Errorf("mem: directory count %d must be positive", numDirs)
	}
	if memBytes == 0 || memBytes%lineBytes != 0 {
		return nil, fmt.Errorf("mem: memory size %d is not a multiple of line size %d", memBytes, lineBytes)
	}
	shift := uint(0)
	for b := lineBytes; b > 1; b >>= 1 {
		shift++
	}
	return &Geometry{
		lineBytes:  lineBytes,
		lineShift:  shift,
		numDirs:    numDirs,
		memBytes:   memBytes,
		totalLines: memBytes / lineBytes,
	}, nil
}

// MustGeometry is NewGeometry that panics on error, for use in tests and
// configuration defaults that are known valid.
func MustGeometry(lineBytes uint64, numDirs int, memBytes uint64) *Geometry {
	g, err := NewGeometry(lineBytes, numDirs, memBytes)
	if err != nil {
		panic(err)
	}
	return g
}

// LineBytes returns the cache-line size in bytes.
func (g *Geometry) LineBytes() uint64 { return g.lineBytes }

// LineShift returns log2(line size).
func (g *Geometry) LineShift() uint { return g.lineShift }

// NumDirs returns the number of directories in the system.
func (g *Geometry) NumDirs() int { return g.numDirs }

// MemBytes returns the physical memory size.
func (g *Geometry) MemBytes() uint64 { return g.memBytes }

// TotalLines returns the number of cache lines in physical memory.
func (g *Geometry) TotalLines() uint64 { return g.totalLines }

// LineOf maps a byte address to its cache line.
func (g *Geometry) LineOf(a Addr) LineAddr {
	return LineAddr(uint64(a) >> g.lineShift)
}

// AddrOf returns the first byte address of a line.
func (g *Geometry) AddrOf(l LineAddr) Addr {
	return Addr(uint64(l) << g.lineShift)
}

// HomeDir returns the directory that owns a line. Lines are interleaved
// across directories at line granularity, the finest interleave, which
// spreads commit traffic evenly — the same choice Scalable TCC evaluates.
func (g *Geometry) HomeDir(l LineAddr) int {
	return int(uint64(l) % uint64(g.numDirs))
}

// Contains reports whether the byte address is inside physical memory.
func (g *Geometry) Contains(a Addr) bool {
	return uint64(a) < g.memBytes
}
