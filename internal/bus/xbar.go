package bus

import (
	"slices"

	"repro/internal/sim"
)

// Xbar is a full crossbar: every src->dst port pair has its own wires, so
// the only contention is between messages on the same pair. Timing per
// pair is a link's slot arithmetic in per-message reservation form — a
// message occupies the earliest free occupancy-cycle slot at or after its
// issue time, WaitCycles accrues the queueing delay, and slot ends on one
// pair are strictly increasing, so same-pair messages deliver in FIFO
// order (the ordering the directory's reply/invalidation traffic needs).
// There is no batched grant round: with no cross-sender arbitration each
// send reserves directly, and Rounds counts one round per message.
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
	free      []*xbarOp  // recycled delivery operations
}

// xbarOp is one in-flight crossbar message awaiting its slot end.
type xbarOp struct {
	x       *Xbar
	deliver func()
	fn      func() // pre-bound completion (no per-send closure)
}

// newXbar builds an n-port full crossbar on the engine. occupancy is the
// per-message hold time of one pair's wires.
func newXbar(eng *sim.Engine, occupancy sim.Time, nodes int) *Xbar {
	return &Xbar{
		eng:       eng,
		occupancy: occupancy,
		nodes:     nodes,
		nextFree:  make([]sim.Time, nodes*nodes),
		ports:     make([]Stats, nodes),
	}
}

// Send implements Interconnect: the message reserves the next free slot
// on the (src,dst) pair's wires and delivers when the slot ends. The key
// is ignored — the crossbar routes by endpoint.
func (x *Xbar) Send(src, dst int, _ uint64, deliver func()) {
	if deliver == nil {
		panic("bus: nil deliver callback")
	}
	s, d := fold(src, dst, x.nodes)
	pair := s*x.nodes + d
	now := x.eng.Now()
	slot := max(now, x.nextFree[pair])
	x.nextFree[pair] = slot + x.occupancy
	ps := &x.ports[s]
	ps.Messages++
	ps.Rounds++
	ps.WaitCycles += uint64(slot - now)
	ps.BusyCycles += uint64(x.occupancy)
	op := x.getOp()
	op.deliver = deliver
	x.eng.Schedule(slot+x.occupancy, op.fn)
}

// complete finishes one crossing: recycle the operation, then deliver.
func (op *xbarOp) complete() {
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

// Stats implements Interconnect: the counters aggregated over source
// ports.
func (x *Xbar) Stats() Stats { return total(x.ports) }

// BankStats implements Interconnect: each source port's private counters.
func (x *Xbar) BankStats() []Stats { return slices.Clone(x.ports) }

// Reset implements Interconnect: all pair ledgers free, counters zeroed,
// storage retained. In-flight operations are abandoned with the engine's
// events.
func (x *Xbar) Reset() {
	clear(x.nextFree)
	clear(x.ports)
}
