package bus

import (
	"fmt"
	"math/bits"

	"repro/internal/fifo"
	"repro/internal/sim"
)

// BankedBus is an address-interleaved N-banked split-transaction bus: N
// independent sets of wires, each with its own batched FIFO arbitration,
// shared-nothing between banks except the delivery pump that pins a
// deterministic cross-bank order on same-cycle completions.
//
// Timing model per bank is exactly the single Bus: a message enqueues on
// its bank's arbitration FIFO, a per-bank grant round drains the queue in
// arrival order when the bank's wires free up, and granted messages
// occupy consecutive occupancy-cycle slots. Messages on different banks
// cross in parallel — the contention relief that opens the 64/128-
// processor scale axis, where a single bus saturates.
//
// Determinism contract (see docs/ENGINE.md): within a bank, strict FIFO;
// across banks, deliveries due in the same cycle are served by one pump
// firing that visits banks round-robin, starting from a bank index that
// rotates by one every firing — so no bank holds a permanent same-cycle
// priority and the order is a pure function of simulation history. With
// one bank the pump degenerates to the single Bus's chained delivery
// event: BankedBus(1) schedules the same events at the same times in the
// same order as Bus, which the differential goldens pin.
type BankedBus struct {
	eng       *sim.Engine
	occupancy sim.Time
	banks     []bank

	// Delivery pump: one in-flight event serving the earliest due slot end
	// across all banks.
	delPending bool
	pumpAt     sim.Time
	pumpRef    sim.EventRef
	pumpFn     func()
	rr         int // rotating start bank for same-cycle service
	dueScratch []delivery
}

// bank is one set of wires: private arbitration queue, slot ledger and
// delivery queue.
type bank struct {
	nextFree     sim.Time
	reqs         fifo.Queue[request]
	dels         fifo.Queue[delivery]
	roundPending bool
	roundFn      func()
	stats        Stats
}

// NewBanked builds an address-interleaved banked bus. occupancy is the
// per-message hold time of one bank's wires; banks must be a positive
// power of two (the interleave function BankOf masks low bits).
func NewBanked(eng *sim.Engine, occupancy sim.Time, banks int) *BankedBus {
	if occupancy <= 0 {
		panic(fmt.Sprintf("bus: occupancy %d must be positive", occupancy))
	}
	if banks <= 0 || bits.OnesCount(uint(banks)) != 1 {
		panic(fmt.Sprintf("bus: banks %d must be a positive power of two", banks))
	}
	b := &BankedBus{eng: eng, occupancy: occupancy, banks: make([]bank, banks)}
	for i := range b.banks {
		bk := &b.banks[i]
		bk.roundFn = func() { b.grantRound(bk) }
	}
	b.pumpFn = b.pump
	return b
}

// NewInterconnect selects the interconnect model for a machine of nodes
// processors. An empty or "bus" topology selects by banks: banks <= 0 is
// the paper's single split-transaction bus; banks >= 1 is the banked
// model with that many banks (Banks=1 is the banked model degenerated to
// one bank — cycle-identical to the single bus, and kept distinct so the
// differential goldens can compare the two implementations). The
// point-to-point topologies — "xbar", "mesh", "ring", with optional
// explicit sizes (see ParseTopology) — ignore banks; validation rejects
// the combination upstream. An unparseable topology panics: config
// validation is the enforcement point and this is the backstop.
func NewInterconnect(eng *sim.Engine, occupancy sim.Time, banks, nodes int, topology string) Interconnect {
	topo, err := ParseTopology(topology, nodes)
	if err != nil {
		panic(err.Error())
	}
	switch topo.Kind {
	case TopoXbar:
		return NewXbar(eng, occupancy, topo.Nodes)
	case TopoMesh, TopoRing:
		return NewFabric(eng, occupancy, topo)
	}
	if banks <= 0 {
		return New(eng, occupancy)
	}
	return NewBanked(eng, occupancy, banks)
}

// Reset implements Interconnect: every bank's queues empty, wires free,
// stats zeroed, and the delivery pump disarmed with its round-robin
// cursor rewound. Ring storage and the pre-bound round callbacks are
// retained. The owning engine must be reset alongside.
func (b *BankedBus) Reset() {
	for i := range b.banks {
		bk := &b.banks[i]
		bk.nextFree = 0
		bk.stats = Stats{}
		bk.reqs.Clear()
		bk.dels.Clear()
		bk.roundPending = false
	}
	b.delPending = false
	b.pumpAt = 0
	b.pumpRef = sim.EventRef{}
	b.rr = 0
	b.dueScratch = b.dueScratch[:0]
}

// Banks returns the bank count.
func (b *BankedBus) Banks() int { return len(b.banks) }

// Stats returns the activity counters aggregated over banks.
func (b *BankedBus) Stats() Stats {
	var s Stats
	for i := range b.banks {
		bs := &b.banks[i].stats
		s.Messages += bs.Messages
		s.BusyCycles += bs.BusyCycles
		s.WaitCycles += bs.WaitCycles
		s.Rounds += bs.Rounds
	}
	return s
}

// BankStats returns a copy of each bank's private counters.
func (b *BankedBus) BankStats() []Stats {
	out := make([]Stats, len(b.banks))
	for i := range b.banks {
		out[i] = b.banks[i].stats
	}
	return out
}

// Queued returns messages awaiting arbitration or delivery, all banks.
func (b *BankedBus) Queued() int {
	n := 0
	for i := range b.banks {
		n += b.banks[i].reqs.Len() + b.banks[i].dels.Len()
	}
	return n
}

// Send implements Interconnect: the message joins bank's arbitration
// queue and is granted a slot on that bank's wires by its next grant
// round, in FIFO order. src and dst are ignored: banks are selected by
// address interleave, not by endpoint.
func (b *BankedBus) Send(_, _, bankIdx int, deliver func()) {
	if deliver == nil {
		panic("bus: nil deliver callback")
	}
	if bankIdx < 0 || bankIdx >= len(b.banks) {
		panic(fmt.Sprintf("bus: bank %d out of range [0,%d)", bankIdx, len(b.banks)))
	}
	bk := &b.banks[bankIdx]
	bk.stats.Messages++
	bk.reqs.Push(request{deliver: deliver, issued: b.eng.Now()})
	if !bk.roundPending {
		bk.roundPending = true
		at := b.eng.Now()
		if bk.nextFree > at {
			at = bk.nextFree
		}
		b.eng.Schedule(at, bk.roundFn)
	}
}

// grantRound is one bank's batched arbitration: it fires when the bank's
// wires free up and drains the whole request queue in arrival order,
// assigning each message the next occupancy-cycle slot on this bank.
func (b *BankedBus) grantRound(bk *bank) {
	bk.roundPending = false
	bk.stats.Rounds++
	start := b.eng.Now()
	if bk.nextFree > start {
		start = bk.nextFree
	}
	for bk.reqs.Len() > 0 {
		r := bk.reqs.Pop()
		bk.stats.WaitCycles += uint64(start - r.issued)
		bk.stats.BusyCycles += uint64(b.occupancy)
		end := start + b.occupancy
		bk.dels.Push(delivery{at: end, deliver: r.deliver})
		start = end
	}
	bk.nextFree = start
	b.schedulePump()
}

// schedulePump (re-)arms the delivery pump for the earliest due slot end
// across all banks. Within a bank slot ends are strictly increasing, but a
// grant round on an idle bank can create a delivery earlier than the
// pump's current target, so an armed pump is pulled forward when needed.
func (b *BankedBus) schedulePump() {
	earliest := sim.MaxTime
	found := false
	for i := range b.banks {
		if b.banks[i].dels.Len() == 0 {
			continue
		}
		if at := b.banks[i].dels.Front().at; !found || at < earliest {
			earliest, found = at, true
		}
	}
	if !found {
		return
	}
	if b.delPending {
		if earliest >= b.pumpAt {
			return
		}
		b.pumpRef.Cancel()
	}
	b.delPending = true
	b.pumpAt = earliest
	b.pumpRef = b.eng.Schedule(earliest, b.pumpFn)
}

// pump completes every bus crossing due this cycle, visiting banks in
// round-robin order starting from a bank that rotates by one per firing,
// then re-arms for the next due slot end. The pump re-arms before any
// callback runs (the single-bus convention), so a callback that sends new
// traffic observes consistent queues; new sends can never create a
// same-cycle delivery, because a slot granted now ends at least one
// occupancy later.
func (b *BankedBus) pump() {
	b.delPending = false
	now := b.eng.Now()
	due := b.dueScratch[:0]
	n := len(b.banks)
	start := b.rr
	b.rr = (b.rr + 1) & (n - 1)
	for i := 0; i < n; i++ {
		bk := &b.banks[(start+i)&(n-1)]
		for bk.dels.Len() > 0 && bk.dels.Front().at == now {
			due = append(due, bk.dels.Pop())
		}
	}
	b.schedulePump()
	for i := range due {
		due[i].deliver()
		due[i].deliver = nil // release the closure for GC
	}
	b.dueScratch = due[:0]
}
