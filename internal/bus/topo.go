package bus

import (
	"fmt"
	"strconv"
	"strings"
)

// Topology kinds, the values config.Machine.Topology accepts (optionally
// with an explicit size suffix — see ParseTopology).
const (
	TopoBus  = "bus"
	TopoXbar = "xbar"
	TopoMesh = "mesh"
	TopoRing = "ring"
)

// MaxNodes is the widest machine any interconnect is built for: the
// processor ceiling (config.MaxProcessors is this constant). The
// full-bit-vector directories keep sharer sets in two 64-bit words.
// ParseTopology rejects a shape of more tiles, whatever the processor
// count, so no topology spec can size an allocation past it.
const MaxNodes = 128

// Topology is a parsed interconnect topology: the model kind plus its
// node geometry. The zero value is not valid; build one with
// ParseTopology.
type Topology struct {
	Kind  string
	Nodes int // tile count (Rows*Cols for the mesh)
	Rows  int // mesh only
	Cols  int // mesh only
}

// String returns the canonical spelling: the kind with its explicit size
// ("bus", "xbar:16", "ring:8", "mesh:4x4"). Parsing the canonical form
// with any processor count reproduces the same Topology, so it is the
// stable identity used in checkpoint keys and fingerprints.
func (t Topology) String() string {
	switch t.Kind {
	case TopoMesh:
		return fmt.Sprintf("mesh:%dx%d", t.Rows, t.Cols)
	case TopoXbar, TopoRing:
		return fmt.Sprintf("%s:%d", t.Kind, t.Nodes)
	default:
		return TopoBus
	}
}

// ParseTopology parses a topology spec against a machine of procs
// processors. Accepted forms:
//
//	""            the default: whatever the Banks axis selects (single
//	              or banked bus)
//	"bus"         same as ""
//	"xbar"        full crossbar, one port per processor
//	"xbar:N"      full crossbar with N ports
//	"ring"        bidirectional ring, one tile per processor
//	"ring:N"      bidirectional ring with N tiles
//	"mesh"        2D mesh, processors factored near-square (rows is the
//	              largest divisor of procs at most sqrt(procs); a prime
//	              count degenerates to 1xP)
//	"mesh:RxC"    2D mesh with explicit geometry
//
// Node ids outside [0, tiles) are folded modulo the tile count, so an
// explicit size smaller than the processor count shares tiles. The
// processor count and every tile count lie in 1..MaxNodes.
func ParseTopology(spec string, procs int) (Topology, error) {
	if procs < 1 || procs > MaxNodes {
		return Topology{}, fmt.Errorf("bus: topology for %d processors (want 1..%d)", procs, MaxNodes)
	}
	kind, size := spec, ""
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		kind, size = spec[:i], spec[i+1:]
	}
	switch kind {
	case "", TopoBus:
		if size != "" {
			return Topology{}, fmt.Errorf("bus: topology %q: the bus takes no size (banks are the Banks axis)", spec)
		}
		return Topology{Kind: TopoBus}, nil
	case TopoXbar, TopoRing:
		n := procs
		if size != "" {
			var err error
			if n, err = strconv.Atoi(size); err != nil || n < 1 || n > MaxNodes {
				return Topology{}, fmt.Errorf("bus: topology %q: size must be an integer in 1..%d", spec, MaxNodes)
			}
		}
		return Topology{Kind: kind, Nodes: n}, nil
	case TopoMesh:
		if size == "" {
			r, c := meshFactor(procs)
			return Topology{Kind: TopoMesh, Nodes: r * c, Rows: r, Cols: c}, nil
		}
		rs, cs, ok := strings.Cut(size, "x")
		if !ok {
			return Topology{}, fmt.Errorf("bus: topology %q: mesh size must be RxC", spec)
		}
		r, err1 := strconv.Atoi(rs)
		c, err2 := strconv.Atoi(cs)
		// Bounding each dimension first keeps r*c from overflowing.
		if err1 != nil || err2 != nil || r < 1 || c < 1 || r > MaxNodes || c > MaxNodes || r*c > MaxNodes {
			return Topology{}, fmt.Errorf("bus: topology %q: mesh size must be RxC with positive dimensions and at most %d tiles", spec, MaxNodes)
		}
		return Topology{Kind: TopoMesh, Nodes: r * c, Rows: r, Cols: c}, nil
	default:
		return Topology{}, fmt.Errorf("bus: unknown topology %q (want bus, xbar, mesh or ring)", spec)
	}
}

// meshFactor factors n near-square: rows is the largest divisor of n at
// most sqrt(n), so rows <= cols and the aspect ratio is as close to
// square as n's divisors allow. A prime n degenerates to 1xN.
func meshFactor(n int) (rows, cols int) {
	rows = 1
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			rows = d
		}
	}
	return rows, n / rows
}

// ValidateTopology is the single config-level enforcement point for the
// topology axis: the spec must parse for the processor count, and the
// point-to-point fabrics do not compose with the Banks axis (they route
// by endpoint, not by address interleave), so any non-bus topology
// requires Banks to be unset.
func ValidateTopology(spec string, banks, procs int) error {
	topo, err := ParseTopology(spec, procs)
	if err != nil {
		return err
	}
	if topo.Kind != TopoBus && banks != 0 {
		return fmt.Errorf("bus: topology %q does not compose with banks=%d (the Banks axis is bus-only)", spec, banks)
	}
	return nil
}
