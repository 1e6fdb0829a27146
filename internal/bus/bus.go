// Package bus models the interconnect of the simulated machine. Five
// implementations of one Interconnect interface exist:
//
//   - Bus, the common split-transaction bus of the paper's Table II: a
//     single shared resource with batched FIFO arbitration. A
//     split-transaction bus separates the request from the reply, so the
//     bus is held only for the cycles a message occupies the wires, not
//     for the whole memory round-trip.
//   - BankedBus (banked.go), an address-interleaved N-banked bus that
//     opens the 64/128-processor scale axis: each bank is an independent
//     split bus arbitrating its own FIFO, and same-cycle deliveries across
//     banks are serviced in a deterministic round-robin.
//   - Xbar (xbar.go), a full crossbar: one reservation ledger per
//     src→dst port pair, so the only contention is two messages between
//     the same pair of nodes.
//   - Mesh and Ring (fabric.go), point-to-point fabrics built from Bus
//     links: a 2D mesh with XY dimension-order routing, and a
//     bidirectional ring routing the shorter arc. Messages occupy every
//     link on their route for the occupancy, hop by hop.
//
// In both models senders do not schedule per-request events: they enqueue
// on an arbitration queue, and one grant-round event — scheduled for the
// cycle the (bank's) wires next free up — drains every queued requester in
// arrival order, assigning each the next `occupancy`-cycle slot. Granted
// messages then deliver through a single chained delivery event walking
// the slot ends. The slot arithmetic is identical to a per-request
// reservation model (each message occupies the earliest free slot at or
// after its issue time), so latency grows under contention exactly the way
// a real shared bus serializes traffic — but arbitration costs one event
// per round, not per message, and the queues recycle their storage.
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

// Interconnect is the system's view of the interconnect. Send transmits a
// message from node src to node dst on the given bank; deliver runs when
// the message has crossed the wires. Bus-class implementations route by
// bank and ignore src/dst; point-to-point fabrics route by src/dst and
// ignore bank. All methods must be called from engine event context (the
// simulator is single-goroutine by design).
type Interconnect interface {
	// Send enqueues a message from src to dst; deliver runs when the
	// message has crossed. Bus-class implementations use only bank (their
	// arbitration queue index; banked implementations panic on a bank
	// outside [0, Banks())); fabrics use only src and dst (node ids,
	// taken modulo their tile count, or VendorNode).
	Send(src, dst, bank int, deliver func())
	// Banks returns the number of independent banks (1 for the single bus).
	Banks() int
	// Stats returns the activity counters, aggregated over banks.
	Stats() Stats
	// BankStats returns a copy of each independent resource's private
	// counters — banks for the bus models, links for the fabrics, output
	// ports for the crossbar. For the single bus this is one entry equal
	// to Stats().
	BankStats() []Stats
	// Queued returns the number of messages awaiting arbitration or
	// delivery across all banks.
	Queued() int
	// Reset returns the interconnect to its initial state — empty
	// queues, free wires, zeroed counters — keeping allocated storage.
	// The owning engine must be reset first (or alongside): pending
	// grant/delivery events are assumed already discarded.
	Reset()
}

// BankOf maps an interleave key onto a bank. Lines interleave by line
// address; control messages with no address (token round trips, gating
// commands) interleave by the sending component's id. banks must be a
// power of two — the bank is the key's low lg(banks) bits — and with one
// bank every key maps to bank 0. A non-power-of-two count panics: the
// mask would silently skip banks (banks=3 masks with 2, so every key
// lands on bank 0 or 2 and bank 1 never carries traffic). Config
// validation is the single enforcement point; this panic is the backstop
// for callers that bypass it.
func BankOf(key uint64, banks int) int {
	if banks <= 1 {
		return 0
	}
	if banks&(banks-1) != 0 {
		panic(fmt.Sprintf("bus: BankOf banks %d must be a power of two", banks))
	}
	return int(key & uint64(banks-1))
}

// Stats counts bus activity.
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

// Bus is a split-transaction bus. All methods must be called from engine
// event context (the simulator is single-goroutine by design).
type Bus struct {
	eng       *sim.Engine
	occupancy sim.Time // cycles one message holds the bus
	nextFree  sim.Time // first cycle the bus is free
	stats     Stats

	reqs         fifo.Queue[request]  // awaiting arbitration
	dels         fifo.Queue[delivery] // granted, awaiting delivery
	roundPending bool
	delPending   bool
	roundFn      func() // pre-bound grant round (no per-schedule closure)
	deliverFn    func() // pre-bound delivery chain step
}

// New builds a bus on the engine. occupancy is the per-message bus-hold
// time in cycles and must be positive.
func New(eng *sim.Engine, occupancy sim.Time) *Bus {
	if occupancy <= 0 {
		panic(fmt.Sprintf("bus: occupancy %d must be positive", occupancy))
	}
	b := &Bus{eng: eng, occupancy: occupancy}
	b.roundFn = b.grantRound
	b.deliverFn = b.deliverHead
	return b
}

// Reset implements Interconnect: empty queues, free wires, zero stats.
// The ring buffers behind the request and delivery queues are retained,
// so a reset bus arbitrates without re-growing them.
func (b *Bus) Reset() {
	b.nextFree = 0
	b.stats = Stats{}
	b.reqs.Clear()
	b.dels.Clear()
	b.roundPending = false
	b.delPending = false
}

// Banks implements Interconnect: the single bus is one bank.
func (b *Bus) Banks() int { return 1 }

// Stats returns a copy of the activity counters.
func (b *Bus) Stats() Stats { return b.stats }

// BankStats implements Interconnect: the single bus is one bank, so the
// per-bank breakdown is the aggregate.
func (b *Bus) BankStats() []Stats { return []Stats{b.stats} }

// Queued returns the number of messages awaiting arbitration or delivery.
func (b *Bus) Queued() int { return b.reqs.Len() + b.dels.Len() }

// Send transmits a message: deliver runs when the message has crossed the
// bus. The message joins the arbitration queue and is granted a slot by
// the next grant round, in FIFO order. src, dst and bank are ignored:
// every message shares the one set of wires.
func (b *Bus) Send(_, _, _ int, deliver func()) {
	b.send(deliver)
}

// send is the link-level entry point the fabrics use directly: enqueue
// and arm a grant round at the cycle the wires next free up.
func (b *Bus) send(deliver func()) {
	if deliver == nil {
		panic("bus: nil deliver callback")
	}
	b.stats.Messages++
	b.reqs.Push(request{deliver: deliver, issued: b.eng.Now()})
	if !b.roundPending {
		b.roundPending = true
		at := b.eng.Now()
		if b.nextFree > at {
			at = b.nextFree
		}
		b.eng.Schedule(at, b.roundFn)
	}
}

// grantRound is the batched arbitration: it fires when the bus frees up
// and drains the whole request queue in arrival order, assigning each
// message the next occupancy-cycle slot.
func (b *Bus) grantRound() {
	b.roundPending = false
	b.stats.Rounds++
	start := b.eng.Now()
	if b.nextFree > start {
		start = b.nextFree
	}
	for b.reqs.Len() > 0 {
		r := b.reqs.Pop()
		b.stats.WaitCycles += uint64(start - r.issued)
		b.stats.BusyCycles += uint64(b.occupancy)
		end := start + b.occupancy
		b.dels.Push(delivery{at: end, deliver: r.deliver})
		start = end
	}
	b.nextFree = start
	b.scheduleDelivery()
}

// scheduleDelivery arms the delivery chain for the head message, if idle.
// Slot ends are strictly increasing, so one in-flight event suffices.
func (b *Bus) scheduleDelivery() {
	if b.delPending || b.dels.Len() == 0 {
		return
	}
	b.delPending = true
	b.eng.Schedule(b.dels.Front().at, b.deliverFn)
}

// deliverHead completes the head message's bus crossing and re-arms the
// chain for the next one. The chain is re-armed before the callback runs,
// so a callback that sends new traffic observes a consistent queue.
func (b *Bus) deliverHead() {
	b.delPending = false
	d := b.dels.Pop()
	b.scheduleDelivery()
	d.deliver()
}
