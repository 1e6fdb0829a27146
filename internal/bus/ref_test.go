package bus

import (
	"slices"

	"repro/internal/sim"
)

// This file keeps the link network as it was before its queues merged and
// its routes became cursors — two FIFOs per link, a path slice rebuilt
// for every message — as the executable specification the link network
// is tested against (TestLinkNetworkMatchesReference, FuzzLinkNetwork).
// Only the queue type differs: refQueue is a plain slice FIFO, so the
// reference shares no queue code with the implementation.

// refQueue is a FIFO on a slice: Push appends, Pop takes the head.
type refQueue[T any] struct{ buf []T }

func (q *refQueue[T]) Len() int   { return len(q.buf) }
func (q *refQueue[T]) Push(v T)   { q.buf = append(q.buf, v) }
func (q *refQueue[T]) Front() T   { return q.buf[0] }
func (q *refQueue[T]) Clear()     { q.buf = nil }
func (q *refQueue[T]) Pop() (v T) { v, q.buf = q.buf[0], q.buf[1:]; return v }

type refRequest struct {
	deliver func()
	issued  sim.Time
}

type refDelivery struct {
	at      sim.Time
	deliver func()
}

type refLink struct {
	eng       *sim.Engine
	occupancy sim.Time
	nextFree  sim.Time
	stats     *Stats

	reqs         refQueue[refRequest]
	dels         refQueue[refDelivery]
	roundPending bool
	delPending   bool
	roundFn      func()
	deliverFn    func()
	pump         *refNetwork
}

func (l *refLink) send(deliver func()) {
	l.stats.Messages++
	l.reqs.Push(refRequest{deliver: deliver, issued: l.eng.Now()})
	if !l.roundPending {
		l.roundPending = true
		l.eng.Schedule(max(l.eng.Now(), l.nextFree), l.roundFn)
	}
}

func (l *refLink) grantRound() {
	l.roundPending = false
	l.stats.Rounds++
	start := max(l.eng.Now(), l.nextFree)
	for l.reqs.Len() > 0 {
		r := l.reqs.Pop()
		l.stats.WaitCycles += uint64(start - r.issued)
		l.stats.BusyCycles += uint64(l.occupancy)
		start += l.occupancy
		l.dels.Push(refDelivery{at: start, deliver: r.deliver})
	}
	l.nextFree = start
	if l.pump != nil {
		l.pump.armPump()
	} else {
		l.armChain()
	}
}

func (l *refLink) armChain() {
	if l.delPending || l.dels.Len() == 0 {
		return
	}
	l.delPending = true
	l.eng.Schedule(l.dels.Front().at, l.deliverFn)
}

func (l *refLink) deliverHead() {
	l.delPending = false
	d := l.dels.Pop()
	l.armChain()
	d.deliver()
}

func (l *refLink) reset() {
	l.nextFree = 0
	l.reqs.Clear()
	l.dels.Clear()
	l.roundPending = false
	l.delPending = false
}

type refNetwork struct {
	eng   *sim.Engine
	topo  Topology
	mask  uint64
	links []refLink
	stats []Stats
	free  []*refHopOp

	pumpPending bool
	pumpAt      sim.Time
	pumpRef     sim.EventRef
	pumpFn      func()
	rr          int
	due         []refDelivery
}

// newRefNetwork is the reference form of NewInterconnect for every shape
// but the crossbar.
func newRefNetwork(eng *sim.Engine, occupancy sim.Time, banks, nodes int, topology string) *refNetwork {
	topo, err := ParseTopology(topology, nodes)
	if err != nil {
		panic(err.Error())
	}
	n := &refNetwork{eng: eng, topo: topo}
	nlinks := 1
	switch topo.Kind {
	case TopoMesh:
		nlinks = topo.Nodes + 2*topo.Rows*(topo.Cols-1) + 2*topo.Cols*(topo.Rows-1)
	case TopoRing:
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
	n.links = make([]refLink, nlinks)
	n.stats = make([]Stats, nlinks)
	for i := range n.links {
		l := &n.links[i]
		l.eng, l.occupancy, l.stats = eng, occupancy, &n.stats[i]
		l.roundFn = l.grantRound
		l.deliverFn = l.deliverHead
		if n.pumpFn != nil {
			l.pump = n
		}
	}
	return n
}

func (n *refNetwork) Send(src, dst int, key uint64, deliver func()) {
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
	op.path = n.route(s, d, op.path[:0])
	op.path = append(op.path, d) // ejection: dst's local port
	op.idx = 0
	op.deliver = deliver
	n.links[op.path[0]].send(op.fn)
}

func (n *refNetwork) Stats() Stats { return total(n.stats) }

func (n *refNetwork) BankStats() []Stats { return slices.Clone(n.stats) }

func (n *refNetwork) Reset() {
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

func (n *refNetwork) armPump() {
	earliest := sim.MaxTime
	for i := range n.links {
		if l := &n.links[i]; l.dels.Len() > 0 && l.dels.Front().at < earliest {
			earliest = l.dels.Front().at
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

func (n *refNetwork) pump() {
	n.pumpPending = false
	now := n.eng.Now()
	due := n.due[:0]
	start := n.rr
	n.rr = (n.rr + 1) & int(n.mask)
	for i := range n.links {
		l := &n.links[(start+i)&int(n.mask)]
		for l.dels.Len() > 0 && l.dels.Front().at == now {
			due = append(due, l.dels.Pop())
		}
	}
	n.armPump()
	for i := range due {
		due[i].deliver()
		due[i].deliver = nil
	}
	n.due = due[:0]
}

type refHopOp struct {
	n       *refNetwork
	path    []int
	idx     int
	deliver func()
	fn      func()
}

func (op *refHopOp) step() {
	op.idx++
	if op.idx < len(op.path) {
		op.n.links[op.path[op.idx]].send(op.fn)
		return
	}
	d := op.deliver
	op.deliver = nil
	op.n.free = append(op.n.free, op)
	d()
}

func (n *refNetwork) getHop() *refHopOp {
	if k := len(n.free); k > 0 {
		op := n.free[k-1]
		n.free = n.free[:k-1]
		return op
	}
	op := &refHopOp{n: n}
	op.fn = op.step
	return op
}

func (n *refNetwork) eastLink(r, c int) int {
	return n.topo.Nodes + r*(n.topo.Cols-1) + c
}
func (n *refNetwork) westLink(r, c int) int {
	return n.topo.Nodes + n.topo.Rows*(n.topo.Cols-1) + r*(n.topo.Cols-1) + (c - 1)
}
func (n *refNetwork) southLink(r, c int) int {
	return n.topo.Nodes + 2*n.topo.Rows*(n.topo.Cols-1) + c*(n.topo.Rows-1) + r
}
func (n *refNetwork) northLink(r, c int) int {
	return n.topo.Nodes + 2*n.topo.Rows*(n.topo.Cols-1) + n.topo.Cols*(n.topo.Rows-1) +
		c*(n.topo.Rows-1) + (r - 1)
}
func (n *refNetwork) cwLink(i int) int  { return n.topo.Nodes + i }
func (n *refNetwork) ccwLink(i int) int { return 2*n.topo.Nodes + i }

// route appends the directional links of the route from tile s to tile d
// (s != d) onto path: XY on the mesh, the shorter arc on the ring (ties
// clockwise).
func (n *refNetwork) route(s, d int, path []int) []int {
	if n.topo.Kind == TopoRing {
		t := n.topo.Nodes
		if (d-s+t)%t <= (s-d+t)%t {
			for i := s; i != d; i = (i + 1) % t {
				path = append(path, n.cwLink(i))
			}
		} else {
			for i := s; i != d; i = (i - 1 + t) % t {
				path = append(path, n.ccwLink(i))
			}
		}
		return path
	}
	cols := n.topo.Cols
	r, c := s/cols, s%cols
	dr, dc := d/cols, d%cols
	for c < dc {
		path = append(path, n.eastLink(r, c))
		c++
	}
	for c > dc {
		path = append(path, n.westLink(r, c))
		c--
	}
	for r < dr {
		path = append(path, n.southLink(r, c))
		r++
	}
	for r > dr {
		path = append(path, n.northLink(r, c))
		r--
	}
	return path
}
