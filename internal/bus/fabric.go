package bus

import (
	"fmt"

	"repro/internal/sim"
)

// Fabric is a point-to-point interconnect — a 2D mesh or a bidirectional
// ring — built from Bus links: every link (a tile's local port, or a
// directional channel between adjacent tiles) is a full split-transaction
// Bus with its own batched FIFO arbitration, so per-link timing is
// exactly the single bus the goldens pin. A message occupies each link on
// its route for the occupancy, hop by hop: hop k's delivery enqueues hop
// k+1, so per-hop queueing delay accrues into WaitCycles the same way bus
// arbitration does.
//
// Routing is deterministic: the mesh routes XY (all column hops, then all
// row hops — dimension-order routing is deadlock-free and makes the hop
// count the Manhattan distance), the ring routes the shorter arc with
// ties broken clockwise. Every route ends with the destination tile's
// local port (the ejection hop), so all traffic converging on a tile
// serializes in one FIFO — which also means two messages between the same
// endpoints can never reorder: same endpoints, same route, FIFO per link.
//
// Node ids fold onto tiles modulo the tile count (processor p is node p;
// directory j is node j mod processors, placed by the caller). The token
// vendor (VendorNode) sits beside tile 0: vendor traffic crosses exactly
// tile 0's local port, on any geometry, keeping all token round trips in
// one FIFO — the acquisition-order delivery the commit queue relies on.
//
// The degenerate single-tile fabric ("mesh:1x1", "ring:1") has exactly
// one link — local port 0 — and every message (local or vendor) crosses
// just it, so it is the single Bus by construction; the done-set
// equivalence harness pins the byte-identity.
type Fabric struct {
	topo Topology
	// links[0:n] are the tiles' local (ejection) ports; directional
	// links follow (see eastLink/westLink/southLink/northLink for the
	// mesh layout, cwLink/ccwLink for the ring).
	links []*Bus
	free  []*hopOp // recycled multi-hop operations
}

// hopOp carries one multi-hop message across its route: a pooled
// operation whose pre-bound step callback is the delivery function of
// each intermediate hop.
type hopOp struct {
	f       *Fabric
	path    []int // link indices, reused storage
	idx     int
	deliver func()
	fn      func() // pre-bound step (no per-hop closure)
}

// NewFabric builds a mesh or ring fabric on the engine. occupancy is the
// per-link hold time of one message; topo must be a parsed mesh or ring
// topology.
func NewFabric(eng *sim.Engine, occupancy sim.Time, topo Topology) *Fabric {
	var nlinks int
	switch topo.Kind {
	case TopoMesh:
		// Local ports, then east/west channels per row, then
		// south/north channels per column.
		nlinks = topo.Nodes + 2*topo.Rows*(topo.Cols-1) + 2*topo.Cols*(topo.Rows-1)
	case TopoRing:
		// Local ports, then clockwise and counter-clockwise channels.
		nlinks = topo.Nodes
		if topo.Nodes > 1 {
			nlinks = 3 * topo.Nodes
		}
	default:
		panic(fmt.Sprintf("bus: fabric topology %q (want mesh or ring)", topo.Kind))
	}
	f := &Fabric{topo: topo}
	f.links = make([]*Bus, nlinks)
	for i := range f.links {
		f.links[i] = New(eng, occupancy)
	}
	return f
}

// Mesh directional-link indexing: each movement between adjacent tiles
// has its own channel, compactly numbered after the local ports.
func (f *Fabric) eastLink(r, c int) int { // (r,c) -> (r,c+1)
	return f.topo.Nodes + r*(f.topo.Cols-1) + c
}
func (f *Fabric) westLink(r, c int) int { // (r,c) -> (r,c-1)
	return f.topo.Nodes + f.topo.Rows*(f.topo.Cols-1) + r*(f.topo.Cols-1) + (c - 1)
}
func (f *Fabric) southLink(r, c int) int { // (r,c) -> (r+1,c)
	return f.topo.Nodes + 2*f.topo.Rows*(f.topo.Cols-1) + c*(f.topo.Rows-1) + r
}
func (f *Fabric) northLink(r, c int) int { // (r,c) -> (r-1,c)
	return f.topo.Nodes + 2*f.topo.Rows*(f.topo.Cols-1) + f.topo.Cols*(f.topo.Rows-1) +
		c*(f.topo.Rows-1) + (r - 1)
}

// Ring directional-link indexing.
func (f *Fabric) cwLink(i int) int  { return f.topo.Nodes + i }   // i -> i+1
func (f *Fabric) ccwLink(i int) int { return 2*f.topo.Nodes + i } // i -> i-1

// linkEnds decodes a link index back to its (from, to) tiles; a local
// port decodes to (tile, tile). The router tests use it as an
// independent check that routes follow real adjacencies.
func (f *Fabric) linkEnds(idx int) (from, to int) {
	n := f.topo.Nodes
	if idx < n {
		return idx, idx
	}
	if f.topo.Kind == TopoRing {
		if idx < 2*n {
			i := idx - n
			return i, (i + 1) % n
		}
		i := idx - 2*n
		return i, (i - 1 + n) % n
	}
	rows, cols := f.topo.Rows, f.topo.Cols
	idx -= n
	if idx < rows*(cols-1) { // east
		r, c := idx/(cols-1), idx%(cols-1)
		return r*cols + c, r*cols + c + 1
	}
	idx -= rows * (cols - 1)
	if idx < rows*(cols-1) { // west
		r, c := idx/(cols-1), idx%(cols-1)
		return r*cols + c + 1, r*cols + c
	}
	idx -= rows * (cols - 1)
	if idx < cols*(rows-1) { // south
		c, r := idx/(rows-1), idx%(rows-1)
		return r*cols + c, (r+1)*cols + c
	}
	idx -= cols * (rows - 1)
	c, r := idx/(rows-1), idx%(rows-1) // north
	return (r+1)*cols + c, r*cols + c
}

// route appends the directional links of the deterministic route from
// tile s to tile d (s != d) onto path: XY dimension-order on the mesh
// (hop count is the Manhattan distance), shorter arc on the ring (ties
// clockwise). The ejection hop is appended by the caller.
func (f *Fabric) route(s, d int, path []int) []int {
	if f.topo.Kind == TopoRing {
		n := f.topo.Nodes
		cw := (d - s + n) % n
		ccw := (s - d + n) % n
		if cw <= ccw {
			for i := s; i != d; i = (i + 1) % n {
				path = append(path, f.cwLink(i))
			}
		} else {
			for i := s; i != d; i = (i - 1 + n) % n {
				path = append(path, f.ccwLink(i))
			}
		}
		return path
	}
	cols := f.topo.Cols
	r, c := s/cols, s%cols
	dr, dc := d/cols, d%cols
	for c < dc {
		path = append(path, f.eastLink(r, c))
		c++
	}
	for c > dc {
		path = append(path, f.westLink(r, c))
		c--
	}
	for r < dr {
		path = append(path, f.southLink(r, c))
		r++
	}
	for r > dr {
		path = append(path, f.northLink(r, c))
		r--
	}
	return path
}

// node folds an endpoint id onto a tile.
func (f *Fabric) node(id int) int {
	if id < 0 {
		panic(fmt.Sprintf("bus: fabric node %d (only VendorNode may be negative)", id))
	}
	return id % f.topo.Nodes
}

// Send implements Interconnect: the message crosses every link of the
// deterministic src->dst route, hop by hop, then delivers. The bank is
// ignored — fabrics route by endpoint. Vendor traffic (either end is
// VendorNode) crosses exactly tile 0's local port; same-tile traffic
// crosses just the tile's local port.
func (f *Fabric) Send(src, dst, _ int, deliver func()) {
	if deliver == nil {
		panic("bus: nil deliver callback")
	}
	if src == VendorNode || dst == VendorNode {
		f.links[0].send(deliver)
		return
	}
	s, d := f.node(src), f.node(dst)
	if s == d {
		f.links[d].send(deliver)
		return
	}
	op := f.getHop()
	op.path = f.route(s, d, op.path[:0])
	op.path = append(op.path, d) // ejection: dst's local port
	op.idx = 0
	op.deliver = deliver
	f.links[op.path[0]].send(op.fn)
}

// step advances a multi-hop message: each hop's delivery enqueues the
// next link, and the final (ejection) hop runs the caller's deliver and
// recycles the operation.
func (op *hopOp) step() {
	op.idx++
	if op.idx < len(op.path) {
		op.f.links[op.path[op.idx]].send(op.fn)
		return
	}
	d := op.deliver
	op.deliver = nil
	op.f.free = append(op.f.free, op)
	d()
}

func (f *Fabric) getHop() *hopOp {
	if n := len(f.free); n > 0 {
		op := f.free[n-1]
		f.free = f.free[:n-1]
		return op
	}
	op := &hopOp{f: f}
	op.fn = op.step
	return op
}

// Banks implements Interconnect: fabrics have no address interleave, so
// every interleave key maps to bank 0 and the bank argument is inert.
func (f *Fabric) Banks() int { return 1 }

// Topology returns the fabric's parsed geometry.
func (f *Fabric) Topology() Topology { return f.topo }

// Stats returns the activity counters aggregated over links. Messages
// counts link crossings: a message on an h-hop route counts h times,
// once per link it occupies.
func (f *Fabric) Stats() Stats {
	var s Stats
	for _, l := range f.links {
		ls := l.Stats()
		s.Messages += ls.Messages
		s.BusyCycles += ls.BusyCycles
		s.WaitCycles += ls.WaitCycles
		s.Rounds += ls.Rounds
	}
	return s
}

// BankStats returns a copy of each link's private counters: local ports
// first (one per tile), then the directional channels.
func (f *Fabric) BankStats() []Stats {
	out := make([]Stats, len(f.links))
	for i, l := range f.links {
		out[i] = l.Stats()
	}
	return out
}

// Queued returns messages awaiting arbitration or delivery on any link.
// A multi-hop message in flight is always queued on exactly one link.
func (f *Fabric) Queued() int {
	n := 0
	for _, l := range f.links {
		n += l.Queued()
	}
	return n
}

// Reset implements Interconnect: every link resets (empty queues, free
// wires, zero stats, storage retained) and the hop-operation free list is
// kept. In-flight hop operations are abandoned with the engine's events.
func (f *Fabric) Reset() {
	for _, l := range f.links {
		l.Reset()
	}
}
