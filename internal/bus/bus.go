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
// On a link, senders do not schedule per-request events: they enqueue on
// the arbitration FIFO, and one grant-round event, scheduled for the
// cycle the wires next free up, drains every queued requester in arrival
// order, assigning each the next `occupancy`-cycle slot. The slot
// arithmetic is identical to a per-request reservation model (each
// message occupies the earliest free slot at or after its issue time), so
// latency grows under contention exactly the way a real shared bus
// serializes traffic, but arbitration costs one event per round, not per
// message. Granted messages deliver in one of two ways. A lone link — the
// bus, a one-bank bus, every link of a mesh or ring — delivers through a
// single chained event walking its slot ends. The banks of a bus of two
// or more share one delivery pump that serves same-cycle deliveries
// across banks in a rotating round-robin.
package bus

import (
	"fmt"

	"repro/internal/fifo"
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

// request is one queued send awaiting a grant round.
type request struct {
	deliver func()
	issued  sim.Time
}

// delivery is one granted message awaiting its slot end.
type delivery struct {
	at      sim.Time
	deliver func()
}

// link is one set of split-transaction wires: an arbitration FIFO, a slot
// ledger, a grant round and its entry in the owner's per-link counters.
type link struct {
	eng       *sim.Engine
	occupancy sim.Time // cycles one message holds the wires
	nextFree  sim.Time // first cycle the wires are free
	stats     *Stats

	reqs         fifo.Queue[request]  // awaiting arbitration
	dels         fifo.Queue[delivery] // granted, awaiting delivery
	roundPending bool
	delPending   bool   // the delivery chain's event is armed
	roundFn      func() // pre-bound grant round (no per-schedule closure)
	deliverFn    func() // pre-bound delivery chain step
	// pump is the network whose shared delivery pump serves this link (a
	// bank of a bus of two or more); nil for a lone link, which delivers
	// through its own chain.
	pump *network
}

// send enqueues a message and arms a grant round at the cycle the wires
// next free up.
func (l *link) send(deliver func()) {
	l.stats.Messages++
	l.reqs.Push(request{deliver: deliver, issued: l.eng.Now()})
	if !l.roundPending {
		l.roundPending = true
		l.eng.Schedule(max(l.eng.Now(), l.nextFree), l.roundFn)
	}
}

// grantRound is the batched arbitration: it fires when the wires free up
// and drains the whole request queue in arrival order, assigning each
// message the next occupancy-cycle slot.
func (l *link) grantRound() {
	l.roundPending = false
	l.stats.Rounds++
	start := max(l.eng.Now(), l.nextFree)
	for l.reqs.Len() > 0 {
		r := l.reqs.Pop()
		l.stats.WaitCycles += uint64(start - r.issued)
		l.stats.BusyCycles += uint64(l.occupancy)
		start += l.occupancy
		l.dels.Push(delivery{at: start, deliver: r.deliver})
	}
	l.nextFree = start
	if l.pump != nil {
		l.pump.armPump()
	} else {
		l.armChain()
	}
}

// armChain arms the delivery chain for the head message, if idle. Slot
// ends are strictly increasing, so one in-flight event suffices.
func (l *link) armChain() {
	if l.delPending || l.dels.Len() == 0 {
		return
	}
	l.delPending = true
	l.eng.Schedule(l.dels.Front().at, l.deliverFn)
}

// deliverHead completes the head message's crossing and re-arms the chain
// for the next one. The chain is re-armed before the callback runs, so a
// callback that sends new traffic observes a consistent queue.
func (l *link) deliverHead() {
	l.delPending = false
	d := l.dels.Pop()
	l.armChain()
	d.deliver()
}

// reset empties the queues and frees the wires, keeping the ring storage
// behind the queues.
func (l *link) reset() {
	l.nextFree = 0
	l.reqs.Clear()
	l.dels.Clear()
	l.roundPending = false
	l.delPending = false
}
