package bus

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// newBanked builds a bus of the given bank count.
func newBanked(eng *sim.Engine, occupancy sim.Time, banks int) Interconnect {
	return NewInterconnect(eng, occupancy, banks, 1, "")
}

func TestBankedMessagesCrossInParallel(t *testing.T) {
	eng := sim.NewEngine()
	b := newBanked(eng, 4, 4)
	times := map[int]sim.Time{}
	// One message per bank, all issued in the same cycle: no queueing
	// anywhere, every crossing completes at t=4.
	for bank := 0; bank < 4; bank++ {
		bank := bank
		b.Send(0, 0, uint64(bank), func() { times[bank] = eng.Now() })
	}
	eng.Run()
	for bank, at := range times {
		if at != 4 {
			t.Errorf("bank %d delivered at %d, want 4 (banks must not serialize)", bank, at)
		}
	}
	if st := b.Stats(); st.Messages != 4 || st.WaitCycles != 0 {
		t.Errorf("stats %+v, want 4 messages with zero wait", st)
	}
}

func TestBankedPerBankFIFOAndSerialization(t *testing.T) {
	eng := sim.NewEngine()
	b := newBanked(eng, 10, 2)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		b.Send(0, 0, 0, func() { order = append(order, i) })
	}
	eng.Run()
	if fmt.Sprint(order) != "[0 1 2]" {
		t.Fatalf("bank 0 delivery order %v, want FIFO", order)
	}
	// Three messages on one bank serialize exactly like the single bus:
	// queueing delays 0 + 10 + 20.
	if st := b.Stats(); st.WaitCycles != 30 || st.BusyCycles != 30 {
		t.Fatalf("stats %+v, want 30 wait / 30 busy", st)
	}
	// The other bank stayed idle.
	if bs := b.BankStats(); bs[1].Messages != 0 {
		t.Fatalf("idle bank counted %d messages", bs[1].Messages)
	}
}

func TestBankedSameCycleCrossBankOrderRotates(t *testing.T) {
	// Two rounds of same-cycle deliveries on banks 0 and 1. The pump's
	// rotating round-robin must serve round one starting at bank 0 and
	// round two starting at bank 1 — cross-bank order is deterministic
	// but no bank owns a permanent priority.
	eng := sim.NewEngine()
	b := newBanked(eng, 4, 2)
	var order []string
	send := func(tag string, key uint64) {
		b.Send(0, 0, key, func() { order = append(order, fmt.Sprintf("%s@%d", tag, eng.Now())) })
	}
	send("a0", 0)
	send("a1", 1)
	eng.Schedule(100, func() {
		send("b0", 0)
		send("b1", 1)
	})
	eng.Run()
	want := "[a0@4 a1@4 b1@104 b0@104]"
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("cross-bank service order %v, want %s", order, want)
	}
}

func TestBankedPumpPullsForwardForEarlierBank(t *testing.T) {
	// Arm the pump far in the future via a long backlog on bank 0, then
	// send on idle bank 1: its delivery is due earlier than the armed
	// pump and must not wait for it.
	eng := sim.NewEngine()
	b := newBanked(eng, 10, 2)
	for i := 0; i < 4; i++ {
		b.Send(0, 0, 0, func() {})
	}
	var second sim.Time
	eng.Schedule(1, func() {
		b.Send(0, 0, 1, func() { second = eng.Now() })
	})
	eng.Run()
	if second != 11 {
		t.Fatalf("idle-bank delivery at %d, want 11 (pump must be pulled forward)", second)
	}
}

func TestNewInterconnectSelectsModel(t *testing.T) {
	eng := sim.NewEngine()
	for _, tc := range []struct {
		banks    int
		topology string
		links    int  // links of the network, ports of the crossbar
		pumped   bool // deliveries through the shared pump
	}{
		{0, "", 1, false},
		{0, "bus", 1, false},
		{1, "", 1, false},
		{4, "", 4, true},
		{0, "mesh", 8 + 2*2*3 + 2*4*1, false}, // 2x4 at 8 processors
		{0, "ring:4", 3 * 4, false},
		{0, "xbar", 8, false},
	} {
		switch ic := NewInterconnect(eng, 2, tc.banks, 8, tc.topology).(type) {
		case *Xbar:
			if tc.topology != "xbar" || ic.nodes != tc.links {
				t.Errorf("banks=%d topology %q: a %d-port crossbar", tc.banks, tc.topology, ic.nodes)
			}
		case *network:
			pumped := ic.pumpFn != nil
			if tc.topology == "xbar" || len(ic.links) != tc.links || pumped != tc.pumped {
				t.Errorf("banks=%d topology %q: %d links (pumped %v), want %d (pumped %v)",
					tc.banks, tc.topology, len(ic.links), pumped, tc.links, tc.pumped)
			}
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unknown topology did not panic")
			}
		}()
		NewInterconnect(eng, 2, 0, 8, "torus")
	}()
}

// TestBankOf pins the bank interleave: on a bus of N banks the message of
// key k rides bank k&(N-1), and one bank or none (the single bus) carries
// every key.
func TestBankOf(t *testing.T) {
	for _, tc := range []struct {
		key       uint64
		banks     int
		wantBank  int
		wantBanks int
	}{
		{5, 1, 0, 1}, {5, 0, 0, 1}, {5, -3, 0, 1}, {5, 4, 1, 4}, {6, 4, 2, 4}, {8, 4, 0, 4}, {13, 8, 5, 8},
	} {
		eng := sim.NewEngine()
		b := newBanked(eng, 2, tc.banks)
		b.Send(0, 0, tc.key, func() {})
		eng.Run()
		bs := b.BankStats()
		if len(bs) != tc.wantBanks || bs[tc.wantBank].Messages != 1 || b.Stats().Messages != 1 {
			t.Errorf("key %d on banks=%d: per-bank stats %+v, want the message on bank %d of %d",
				tc.key, tc.banks, bs, tc.wantBank, tc.wantBanks)
		}
	}
}

// TestBankOfRejectsNonPowerOfTwo pins the backstop for the interleave
// invariant: the &(banks-1) mask is only a modulus for powers of two, and
// a non-power-of-two count would silently skip banks (banks=3 masks with
// 2: bank 1 never carries traffic). Config validation rejects such
// machines; the constructor panics so a caller bypassing validation
// cannot run a silently lopsided interconnect.
func TestBankOfRejectsNonPowerOfTwo(t *testing.T) {
	for _, banks := range []int{3, 5, 6, 7, 12, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("banks=%d did not panic", banks)
				}
			}()
			newBanked(sim.NewEngine(), 2, banks)
		}()
	}
}

// TestNewBankedRejectsNonPowerOfTwo pins where the bank-count check
// lives: the constructor refuses banks=3 on the bus shape, whether the
// topology is left empty or spelled "bus", and names the count.
func TestNewBankedRejectsNonPowerOfTwo(t *testing.T) {
	for _, topology := range []string{"", "bus"} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "banks 3") {
					t.Errorf("banks=3 on topology %q: panic %v, want one naming banks 3", topology, r)
				}
			}()
			NewInterconnect(sim.NewEngine(), 2, 3, 1, topology)
		}()
	}
}

// TestBankedOneBankMatchesSingleBus is the bus-level differential for a
// one-bank bus: it must deliver a randomized send schedule at exactly the
// cycles the single bus does, with its stats (see matchOneLink). The
// banks=1 row of TestDoneSetEquivalence pins the same property through
// the whole machine; this one localizes a divergence to the interconnect.
func TestBankedOneBankMatchesSingleBus(t *testing.T) {
	matchOneLink(t, oneLinkShape{"banks=1", 1, ""})
}

// FuzzBankedSlots drives the banked bus with an arbitrary send schedule
// and checks the arbitration invariants: no bank ever grants two senders
// overlapping occupancy slots (each bank's wires carry one message at a
// time), per-bank delivery order is FIFO, and every message is delivered
// exactly once. The fuzz input is a byte stream of (key, delay) pairs.
func FuzzBankedSlots(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 3, 3, 3, 0, 1}, uint8(4))
	f.Add([]byte{0, 0, 0, 0, 0, 0}, uint8(1))
	f.Add([]byte{1, 200, 2, 200, 1, 0, 7, 9}, uint8(8))
	f.Add([]byte{0, 0, 1, 1}, uint8(3)) // non-power-of-two: construction must panic
	f.Add([]byte{5, 5}, uint8(6))
	f.Fuzz(func(t *testing.T, data []byte, banksRaw uint8) {
		banks := int(banksRaw%8) + 1 // 1..8 banks, power of two or not
		const occupancy = sim.Time(5)
		eng := sim.NewEngine()
		if banks&(banks-1) != 0 {
			// The mask interleave is wrong off powers of two; the model
			// must refuse to build rather than run lopsided.
			defer func() {
				if recover() == nil {
					t.Fatalf("banks=%d did not panic", banks)
				}
			}()
			newBanked(eng, occupancy, banks)
			return
		}
		b := newBanked(eng, occupancy, banks)
		type crossing struct {
			bank int
			seq  int
			end  sim.Time
		}
		var crossings []crossing
		sent := 0
		at := sim.Time(0)
		for i := 0; i+1 < len(data); i += 2 {
			key := uint64(data[i])
			bank := int(key) % banks
			at += sim.Time(data[i+1])
			seq := sent
			sent++
			eng.Schedule(at, func() {
				b.Send(0, 0, key, func() {
					crossings = append(crossings, crossing{bank: bank, seq: seq, end: eng.Now()})
				})
			})
		}
		eng.Run()
		if len(crossings) != sent {
			t.Fatalf("%d of %d messages delivered", len(crossings), sent)
		}
		// Per bank: slot ends strictly increase by at least one occupancy
		// (no two senders share a slot) and per-bank arrival order holds.
		lastEnd := map[int]sim.Time{}
		lastSeq := map[int]int{}
		perBank := make([]uint64, banks)
		for _, c := range crossings {
			if prev, ok := lastEnd[c.bank]; ok {
				if c.end < prev+occupancy {
					t.Fatalf("bank %d granted two senders overlapping slots: ends %d then %d (occupancy %d)",
						c.bank, prev, c.end, occupancy)
				}
				if got := lastSeq[c.bank]; c.seq < got {
					t.Fatalf("bank %d reordered senders: seq %d after %d", c.bank, c.seq, got)
				}
			}
			lastEnd[c.bank] = c.end
			lastSeq[c.bank] = c.seq
			perBank[c.bank]++
		}
		if st := b.Stats(); st.Messages != uint64(sent) || st.BusyCycles != uint64(sent)*uint64(occupancy) {
			t.Fatalf("stats %+v inconsistent with %d messages", st, sent)
		}
		for i, s := range b.BankStats() {
			if s.Messages != perBank[i] {
				t.Fatalf("bank %d counted %d messages, %d crossed it", i, s.Messages, perBank[i])
			}
		}
	})
}
