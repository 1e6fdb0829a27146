package bus

import (
	"fmt"

	"repro/internal/sim"
)

// Xbar is a full crossbar: every src->dst port pair has its own wires, so
// the only contention is between messages on the same pair. Timing per
// pair is the single bus's slot arithmetic in per-message reservation
// form — a message occupies the earliest free occupancy-cycle slot at or
// after its issue time, WaitCycles accrues the queueing delay, and slot
// ends on one pair are strictly increasing, so same-pair messages deliver
// in FIFO order (the ordering the directory's reply/invalidation traffic
// needs). There is no batched grant round: with no cross-sender
// arbitration each send reserves directly, and Rounds counts one round
// per message.
//
// Node ids fold onto ports modulo the port count. The token vendor
// (VendorNode) sits beside port 0: all vendor traffic — requests and
// replies — reserves the (0,0) pair, keeping token round trips in one
// FIFO so TID replies deliver in acquisition order on this topology too.
type Xbar struct {
	eng       *sim.Engine
	occupancy sim.Time
	nodes     int
	nextFree  []sim.Time // nodes*nodes pair reservation ledgers
	ports     []Stats    // per source port, indexed by folded src
	queued    int
	free      []*xbarOp // recycled delivery operations
}

// xbarOp is one in-flight crossbar message awaiting its slot end.
type xbarOp struct {
	x       *Xbar
	deliver func()
	fn      func() // pre-bound completion (no per-send closure)
}

// NewXbar builds an n-port full crossbar on the engine. occupancy is the
// per-message hold time of one pair's wires.
func NewXbar(eng *sim.Engine, occupancy sim.Time, nodes int) *Xbar {
	if occupancy <= 0 {
		panic(fmt.Sprintf("bus: occupancy %d must be positive", occupancy))
	}
	if nodes < 1 {
		panic(fmt.Sprintf("bus: crossbar ports %d must be positive", nodes))
	}
	return &Xbar{
		eng:       eng,
		occupancy: occupancy,
		nodes:     nodes,
		nextFree:  make([]sim.Time, nodes*nodes),
		ports:     make([]Stats, nodes),
	}
}

// Send implements Interconnect: the message reserves the next free slot
// on the (src,dst) pair's wires and delivers when the slot ends. The bank
// is ignored — the crossbar routes by endpoint.
func (x *Xbar) Send(src, dst, _ int, deliver func()) {
	if deliver == nil {
		panic("bus: nil deliver callback")
	}
	var s, d int
	if src == VendorNode || dst == VendorNode {
		s, d = 0, 0
	} else {
		s, d = x.node(src), x.node(dst)
	}
	pair := s*x.nodes + d
	now := x.eng.Now()
	slot := now
	if x.nextFree[pair] > slot {
		slot = x.nextFree[pair]
	}
	x.nextFree[pair] = slot + x.occupancy
	ps := &x.ports[s]
	ps.Messages++
	ps.Rounds++
	ps.WaitCycles += uint64(slot - now)
	ps.BusyCycles += uint64(x.occupancy)
	op := x.getOp()
	op.deliver = deliver
	x.queued++
	x.eng.Schedule(slot+x.occupancy, op.fn)
}

// complete finishes one crossing: recycle the operation, then deliver.
func (op *xbarOp) complete() {
	op.x.queued--
	d := op.deliver
	op.deliver = nil
	op.x.free = append(op.x.free, op)
	d()
}

func (x *Xbar) getOp() *xbarOp {
	if n := len(x.free); n > 0 {
		op := x.free[n-1]
		x.free = x.free[:n-1]
		return op
	}
	op := &xbarOp{x: x}
	op.fn = op.complete
	return op
}

// node folds an endpoint id onto a port.
func (x *Xbar) node(id int) int {
	if id < 0 {
		panic(fmt.Sprintf("bus: crossbar node %d (only VendorNode may be negative)", id))
	}
	return id % x.nodes
}

// Banks implements Interconnect: the crossbar has no address interleave,
// so every interleave key maps to bank 0 and the bank argument is inert.
func (x *Xbar) Banks() int { return 1 }

// Ports returns the port count.
func (x *Xbar) Ports() int { return x.nodes }

// Stats returns the activity counters aggregated over source ports.
func (x *Xbar) Stats() Stats {
	var s Stats
	for i := range x.ports {
		p := &x.ports[i]
		s.Messages += p.Messages
		s.BusyCycles += p.BusyCycles
		s.WaitCycles += p.WaitCycles
		s.Rounds += p.Rounds
	}
	return s
}

// BankStats returns a copy of each source port's private counters.
func (x *Xbar) BankStats() []Stats {
	out := make([]Stats, len(x.ports))
	copy(out, x.ports)
	return out
}

// Queued returns the number of messages in flight (reserved, awaiting
// their slot end).
func (x *Xbar) Queued() int { return x.queued }

// Reset implements Interconnect: all pair ledgers free, counters zeroed,
// storage retained. In-flight operations are abandoned with the engine's
// events.
func (x *Xbar) Reset() {
	for i := range x.nextFree {
		x.nextFree[i] = 0
	}
	for i := range x.ports {
		x.ports[i] = Stats{}
	}
	x.queued = 0
}
