// Package bus models the interconnect of the simulated machine: the
// common split-transaction bus of the paper's Table II and the wider
// shapes the 64/128-processor scale axis adds. NewInterconnect is the one
// constructor. Two implementations of the Interconnect interface sit
// behind it:
//
//   - The link network (net.go), built from one primitive, the link: a
//     set of split-transaction wires with an arbitration FIFO, a slot
//     ledger and a batched grant round. A split-transaction bus separates
//     the request from the reply, so a link is held only for the cycles a
//     message occupies the wires, not for the whole memory round-trip. A
//     route picks the links a message crosses. The paper's bus is one
//     link. The address-interleaved banked bus is N links, and the
//     message's interleave key, masked to its low lg(N) bits, picks one.
//     The 2D mesh (XY dimension-order routing) and the bidirectional ring
//     (shorter arc) have a local port per tile plus a link per
//     directional channel, and a message crosses every link of its route
//     hop by hop, ending on the destination tile's local port.
//   - Xbar (xbar.go), a full crossbar: one reservation ledger per
//     src→dst port pair, so the only contention is two messages between
//     the same pair of nodes. It has no grant round: each send reserves
//     its slot directly.
//
// On a link, senders do not schedule per-request events: they join the
// link's queue, and one grant-round event, scheduled for the cycle the
// wires next free up, grants every waiting requester in arrival order,
// assigning each the next `occupancy`-cycle slot. The slot arithmetic is
// identical to a per-request reservation model (each message occupies the
// earliest free slot at or after its issue time), so latency grows under
// contention exactly the way a real shared bus serializes traffic, but
// arbitration costs one event per round, not per message. Granted messages
// deliver in one of two ways. A lone link — the bus, a one-bank bus, every
// link of a mesh or ring — delivers through a single chained event walking
// its slot ends. The banks of a bus of two or more share one delivery pump
// that serves same-cycle deliveries across banks in a rotating
// round-robin.
package bus

import (
	"fmt"

	"repro/internal/sim"
)

// VendorNode is the node id of the token vendor, which sits beside tile 0
// rather than on its own port: on every topology, traffic to or from the
// vendor crosses exactly one resource — tile 0's local port (the single
// bus on "bus"). Serializing all token traffic through one FIFO is what
// keeps TID replies delivering in acquisition order on every shape (the
// commit-ordering invariant the processors rely on).
const VendorNode = -1

// Interconnect is the system's view of the interconnect. All methods must
// be called from engine event context (the simulator is single-goroutine
// by design).
type Interconnect interface {
	// Send enqueues a message from node src to node dst; deliver runs
	// when the message has crossed. The bus shapes route by key — the
	// bank is the key's low lg(banks) bits — and ignore src and dst.
	// The point-to-point shapes route by src and dst (node ids, folded
	// modulo their tile count, or VendorNode) and ignore key. Callers
	// pass the line address as the key of line traffic, the originating
	// component's id for control traffic with no address, and 0 for
	// token traffic.
	Send(src, dst int, key uint64, deliver func())
	// Stats returns the activity counters, aggregated over resources.
	Stats() Stats
	// BankStats returns a copy of each independent resource's private
	// counters: banks for the bus shapes, links for the mesh and ring,
	// source ports for the crossbar. The single bus has one entry.
	BankStats() []Stats
	// Reset returns the interconnect to its initial state — empty
	// queues, free wires, zeroed counters — keeping allocated storage.
	// The owning engine must be reset first (or alongside): pending
	// grant/delivery events are assumed already discarded.
	Reset()
}

// Stats counts interconnect activity.
type Stats struct {
	Messages   uint64
	BusyCycles uint64
	// WaitCycles accumulates queueing delay (time between issue and the
	// start of the granted slot) across all messages.
	WaitCycles uint64
	// Rounds counts batched grant rounds: one arbitration event may
	// grant many queued messages. Messages/Rounds is the batching factor.
	Rounds uint64
}

// total rolls per-resource counters up into one aggregate.
func total(per []Stats) Stats {
	var s Stats
	for _, p := range per {
		s.Messages += p.Messages
		s.BusyCycles += p.BusyCycles
		s.WaitCycles += p.WaitCycles
		s.Rounds += p.Rounds
	}
	return s
}

// NewInterconnect builds the interconnect of a machine of nodes
// processors. occupancy is the cycles one message holds a link (or a
// crossbar pair) and must be positive. An empty or "bus" topology selects
// by banks: banks <= 1 is the paper's single split-transaction bus, and a
// larger power of two is the banked bus with that many banks. The
// point-to-point topologies — "xbar", "mesh", "ring", with optional
// explicit sizes (see ParseTopology) — ignore banks; validation rejects
// the combination upstream. An unparseable topology or a banks count
// that is not a power of two panics: the mask interleave would silently
// skip banks (banks=3 masks with 2, so bank 1 never carries traffic).
// Config validation is the enforcement point and these panics are the
// backstop.
func NewInterconnect(eng *sim.Engine, occupancy sim.Time, banks, nodes int, topology string) Interconnect {
	if occupancy <= 0 {
		panic(fmt.Sprintf("bus: occupancy %d must be positive", occupancy))
	}
	topo, err := ParseTopology(topology, nodes)
	if err != nil {
		panic(err.Error())
	}
	if topo.Kind == TopoXbar {
		return newXbar(eng, occupancy, topo.Nodes)
	}
	if topo.Kind == TopoBus && banks > 0 && banks&(banks-1) != 0 {
		panic(fmt.Sprintf("bus: banks %d must be a power of two", banks))
	}
	return newNetwork(eng, occupancy, topo, banks)
}

// fold maps a message's endpoints onto an n-tile shape: node ids fold
// modulo n, and traffic to or from the token vendor maps to (0, 0).
func fold(src, dst, n int) (s, d int) {
	if src == VendorNode || dst == VendorNode {
		return 0, 0
	}
	if src < 0 || dst < 0 {
		panic(fmt.Sprintf("bus: nodes %d->%d (only VendorNode may be negative)", src, dst))
	}
	return src % n, dst % n
}

// entry is one message on a link's queue: its delivery callback and a
// time, which is the issue time until the message is granted and its slot
// end after that.
type entry struct {
	deliver func()
	at      sim.Time
}

// link is one set of split-transaction wires: a message queue, a slot
// ledger and a grant round. The queue is one power-of-two ring in arrival
// order. Its first granted entries hold slots, ending at strictly
// increasing times; the rest await the grant round, which is pending
// exactly when such entries exist. The wires are free from the end of
// the last granted slot, or from now when no slot is granted: a slot
// leaves the queue when it ends. A lone link delivers through a chain of
// one event, which is armed exactly when a slot is granted. A link is 64
// bytes, one cache line; what all links of a network share — the engine,
// the occupancy, the counters — lives in the network.
type link struct {
	q         []entry // the ring; len is zero or a power of two
	head      int32   // index of the oldest entry
	n         int32   // queued entries
	granted   int32   // entries at the head that hold a slot
	id        int32   // index in the network's links and counters
	net       *network
	roundFn   func() // pre-bound grant round (no per-schedule closure)
	deliverFn func() // pre-bound delivery chain step
}

// send enqueues a message and, unless one is pending, arms a grant round
// at the cycle the wires next free up.
func (l *link) send(deliver func()) {
	net := l.net
	now := net.eng.Now()
	net.stats[l.id].Messages++
	if int(l.n) == len(l.q) {
		l.grow()
	}
	idle := l.n == l.granted
	l.q[(l.head+l.n)&int32(len(l.q)-1)] = entry{deliver: deliver, at: now}
	l.n++
	if idle {
		net.eng.Schedule(l.freeAt(now), l.roundFn)
	}
}

// freeAt returns the first cycle at or after now that the wires are free.
func (l *link) freeAt(now sim.Time) sim.Time {
	if l.granted == 0 {
		return now
	}
	return max(now, l.q[(l.head+l.granted-1)&int32(len(l.q)-1)].at)
}

// grow doubles the queue's ring, keeping arrival order.
func (l *link) grow() {
	q := make([]entry, max(8, 2*len(l.q)))
	for i := int32(0); i < l.n; i++ {
		q[i] = l.q[(l.head+i)&int32(len(l.q)-1)]
	}
	l.q, l.head = q, 0
}

// grantRound is the batched arbitration: it fires when the wires free up
// and grants every waiting message in arrival order, assigning each the
// next occupancy-cycle slot.
func (l *link) grantRound() {
	net := l.net
	st := &net.stats[l.id]
	st.Rounds++
	occupancy := net.occupancy
	start := l.freeAt(net.eng.Now())
	mask := int32(len(l.q) - 1)
	first := l.granted
	for i := first; i < l.n; i++ {
		e := &l.q[(l.head+i)&mask]
		st.WaitCycles += uint64(start - e.at)
		st.BusyCycles += uint64(occupancy)
		start += occupancy
		e.at = start
	}
	l.granted = l.n
	if net.pumpFn != nil {
		net.armPump()
	} else if first == 0 {
		l.armChain()
	}
}

// front returns the oldest message; the caller checks that one is granted.
func (l *link) front() *entry { return &l.q[l.head] }

// pop removes the oldest message, which must be granted, and returns its
// callback.
func (l *link) pop() func() {
	e := &l.q[l.head]
	d := e.deliver
	e.deliver = nil // release the closure for GC
	l.head = (l.head + 1) & int32(len(l.q)-1)
	l.n--
	l.granted--
	return d
}

// armChain arms the delivery chain for the head message, which is
// granted. Slot ends are strictly increasing, so one in-flight event
// suffices.
func (l *link) armChain() {
	l.net.eng.Schedule(l.front().at, l.deliverFn)
}

// deliverHead completes the head message's crossing and re-arms the chain
// for the next one. The chain is re-armed before the callback runs, so a
// callback that sends new traffic observes a consistent queue.
func (l *link) deliverHead() {
	d := l.pop()
	if l.granted > 0 {
		l.armChain()
	}
	d()
}

// reset empties the queue, keeping the ring storage.
func (l *link) reset() {
	clear(l.q)
	l.head, l.n, l.granted = 0, 0, 0
}
