package bus

import (
	"slices"

	"repro/internal/sim"
)

// network is the link-based Interconnect: the bus, the banked bus, the
// mesh and the ring, each a set of links and a route over them.
//
// The bus shapes route by interleave key: links[key&(banks-1)], so the
// single bus and a one-bank bus are the same single link. Within a bank,
// strict FIFO. A bus of two or more banks delivers through one shared
// pump (see pump), which pins a deterministic cross-bank order on
// same-cycle completions.
//
// The mesh and ring route by endpoint. links[0:tiles] are the tiles'
// local (ejection) ports; directional links follow (see
// eastLink/westLink/southLink/northLink for the mesh layout,
// cwLink/ccwLink for the ring). A message occupies each link on its route
// for the occupancy, hop by hop: hop k's delivery enqueues hop k+1, so
// per-hop queueing delay accrues into WaitCycles the same way bus
// arbitration does. The message carries a cursor along its route (see
// hopOp), so no path is ever built. Routing is deterministic: the mesh
// routes XY (all column hops, then all row hops — dimension-order routing
// is deadlock-free and makes the hop count the Manhattan distance), the
// ring routes the shorter arc with ties broken clockwise, the direction
// chosen once at injection. Every route ends with the destination tile's
// local port, so all traffic converging on a tile serializes in one FIFO,
// and two messages between the same endpoints can never reorder: same
// endpoints, same route, FIFO per link. Vendor traffic crosses exactly
// tile 0's local port, on any geometry, keeping all token round trips in
// one FIFO. A one-tile mesh or ring has just that port, so it is the
// single bus by construction.
type network struct {
	eng       *sim.Engine
	occupancy sim.Time // cycles one message holds a link
	stats     []Stats  // per-link counters
	links     []link
	topo      Topology
	mask      uint64   // bus shapes: the bank interleave, banks-1
	free      []*hopOp // recycled multi-hop operations

	// The delivery pump of a bus of two or more banks: one in-flight
	// event serving the earliest due slot end across all banks. pumpFn
	// is nil on every other shape.
	pumpPending bool
	pumpAt      sim.Time
	pumpRef     sim.EventRef
	pumpFn      func()
	rr          int // rotating start bank for same-cycle service
	due         []func()
}

// newNetwork builds the links of a bus, mesh or ring topology.
func newNetwork(eng *sim.Engine, occupancy sim.Time, topo Topology, banks int) *network {
	n := &network{eng: eng, occupancy: occupancy, topo: topo}
	nlinks := 1
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
		if banks > 1 {
			nlinks = banks
			n.mask = uint64(banks - 1)
			n.pumpFn = n.pump
		}
	}
	n.links = make([]link, nlinks)
	n.stats = make([]Stats, nlinks)
	for i := range n.links {
		l := &n.links[i]
		l.id, l.net = int32(i), n
		l.roundFn = l.grantRound
		l.deliverFn = l.deliverHead
	}
	return n
}

// Send implements Interconnect. On the bus shapes the message joins its
// bank's queue. On the mesh and ring it crosses every link of
// the deterministic src->dst route, then delivers; vendor and same-tile
// traffic crosses just one local port.
func (n *network) Send(src, dst int, key uint64, deliver func()) {
	if deliver == nil {
		panic("bus: nil deliver callback")
	}
	if n.topo.Kind == TopoBus {
		n.links[key&n.mask].send(deliver)
		return
	}
	s, d := fold(src, dst, n.topo.Nodes)
	if s == d {
		n.links[d].send(deliver)
		return
	}
	op := n.getHop()
	n.startRoute(op, s, d)
	op.deliver = deliver
	n.links[n.hop(op)].send(op.fn)
}

// Stats implements Interconnect. On the mesh and ring Messages counts
// link crossings: a message on an h-hop route counts h times.
func (n *network) Stats() Stats { return total(n.stats) }

// BankStats implements Interconnect: one entry per bank, or per link on
// the mesh and ring (local ports first, then the directional channels).
func (n *network) BankStats() []Stats { return slices.Clone(n.stats) }

// Reset implements Interconnect: every link's queue empty, wires free,
// counters zeroed, and the pump disarmed with its round-robin cursor
// rewound. Queue storage, pre-bound callbacks and the hop-operation free
// list are kept; in-flight hop operations are abandoned with the engine's
// events.
func (n *network) Reset() {
	for i := range n.links {
		n.links[i].reset()
	}
	clear(n.stats)
	n.pumpPending = false
	n.pumpAt = 0
	n.pumpRef = sim.EventRef{}
	n.rr = 0
	n.due = n.due[:0]
}

// armPump (re-)arms the delivery pump for the earliest due slot end
// across all banks. Within a bank slot ends are strictly increasing, but a
// grant round on an idle bank can create a delivery earlier than the
// pump's current target, so an armed pump is pulled forward when needed.
func (n *network) armPump() {
	earliest := sim.MaxTime
	for i := range n.links {
		if l := &n.links[i]; l.granted > 0 && l.front().at < earliest {
			earliest = l.front().at
		}
	}
	if earliest == sim.MaxTime {
		return
	}
	if n.pumpPending {
		if earliest >= n.pumpAt {
			return
		}
		n.pumpRef.Cancel()
	}
	n.pumpPending = true
	n.pumpAt = earliest
	n.pumpRef = n.eng.Schedule(earliest, n.pumpFn)
}

// pump completes every crossing due this cycle, visiting banks in
// round-robin order starting from a bank that rotates by one per firing,
// then re-arms for the next due slot end. No bank holds a permanent
// same-cycle priority, and the order is a pure function of simulation
// history. The pump re-arms before any callback runs (the chain's
// convention), so a callback that sends new traffic observes consistent
// queues; new sends can never create a same-cycle delivery, because a
// slot granted now ends at least one occupancy later.
func (n *network) pump() {
	n.pumpPending = false
	now := n.eng.Now()
	due := n.due[:0]
	start := n.rr
	n.rr = (n.rr + 1) & int(n.mask)
	for i := range n.links {
		l := &n.links[(start+i)&int(n.mask)]
		for l.granted > 0 && l.front().at == now {
			due = append(due, l.pop())
		}
	}
	n.armPump()
	for i := range due {
		due[i]()
		due[i] = nil // release the closure for GC
	}
	n.due = due[:0]
}

// hopOp carries one multi-hop message along its route: a pooled operation
// whose pre-bound step callback is the delivery function of each hop, and
// whose cursor is the part of the route still ahead. On the mesh the
// cursor is the tile (r, c) the message has reached and the destination
// (dr, dc). The ring is one row: c steps by dir, +1 clockwise or -1
// counter-clockwise, wrapping at the tile count. dst is the destination
// tile, whose local port is the last hop; last marks that hop.
type hopOp struct {
	n            *network
	r, c, dr, dc int32
	dir          int32
	dst          int32
	last         bool
	deliver      func()
	fn           func() // pre-bound step (no per-hop closure)
}

// step advances a multi-hop message: each hop's delivery enqueues the
// next link, and the final (ejection) hop runs the caller's deliver and
// recycles the operation.
func (op *hopOp) step() {
	if !op.last {
		op.n.links[op.n.hop(op)].send(op.fn)
		return
	}
	d := op.deliver
	op.deliver = nil
	op.n.free = append(op.n.free, op)
	d()
}

func (n *network) getHop() *hopOp {
	if k := len(n.free); k > 0 {
		op := n.free[k-1]
		n.free = n.free[:k-1]
		return op
	}
	op := &hopOp{n: n}
	op.fn = op.step
	return op
}

// startRoute points op's cursor at the deterministic route from tile s to
// tile d: XY dimension-order on the mesh (hop count is the Manhattan
// distance), shorter arc on the ring (ties clockwise).
func (n *network) startRoute(op *hopOp, s, d int) {
	op.dst, op.last = int32(d), false
	if n.topo.Kind == TopoRing {
		t := n.topo.Nodes
		op.r, op.c, op.dr, op.dc, op.dir = 0, int32(s), 0, int32(d), 1
		if (d-s+t)%t > (s-d+t)%t {
			op.dir = -1
		}
		return
	}
	cols := n.topo.Cols
	op.r, op.c, op.dr, op.dc, op.dir = int32(s/cols), int32(s%cols), int32(d/cols), int32(d%cols), 0
}

// hop returns the link of op's next hop and moves the cursor past it. The
// last hop is the destination's local port.
func (n *network) hop(op *hopOp) int {
	r, c := int(op.r), int(op.c)
	switch {
	case op.c == op.dc && op.r == op.dr:
		op.last = true
		return int(op.dst)
	case op.dir > 0:
		if op.c++; int(op.c) == n.topo.Nodes {
			op.c = 0
		}
		return n.cwLink(c)
	case op.dir < 0:
		if op.c--; op.c < 0 {
			op.c = int32(n.topo.Nodes - 1)
		}
		return n.ccwLink(c)
	case op.c < op.dc:
		op.c++
		return n.eastLink(r, c)
	case op.c > op.dc:
		op.c--
		return n.westLink(r, c)
	case op.r < op.dr:
		op.r++
		return n.southLink(r, c)
	default:
		op.r--
		return n.northLink(r, c)
	}
}

// Mesh directional-link indexing: each movement between adjacent tiles
// has its own channel, compactly numbered after the local ports.
func (n *network) eastLink(r, c int) int { // (r,c) -> (r,c+1)
	return n.topo.Nodes + r*(n.topo.Cols-1) + c
}
func (n *network) westLink(r, c int) int { // (r,c) -> (r,c-1)
	return n.topo.Nodes + n.topo.Rows*(n.topo.Cols-1) + r*(n.topo.Cols-1) + (c - 1)
}
func (n *network) southLink(r, c int) int { // (r,c) -> (r+1,c)
	return n.topo.Nodes + 2*n.topo.Rows*(n.topo.Cols-1) + c*(n.topo.Rows-1) + r
}
func (n *network) northLink(r, c int) int { // (r,c) -> (r-1,c)
	return n.topo.Nodes + 2*n.topo.Rows*(n.topo.Cols-1) + n.topo.Cols*(n.topo.Rows-1) +
		c*(n.topo.Rows-1) + (r - 1)
}

// Ring directional-link indexing.
func (n *network) cwLink(i int) int  { return n.topo.Nodes + i }   // i -> i+1
func (n *network) ccwLink(i int) int { return 2*n.topo.Nodes + i } // i -> i-1
