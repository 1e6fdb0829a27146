package bus

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sim"
)

// This file drives the link network with synthetic traffic and no
// processor model: a differential against the reference network in
// ref_test.go, and timing oracles that any hop model must pass.

// trafficShape is one link-network shape under test: a bank count and a
// topology spec, built for nodes processors.
type trafficShape struct {
	banks    int
	topology string
	nodes    int
}

func (sh trafficShape) String() string {
	if sh.banks > 0 {
		return fmt.Sprintf("banks=%d", sh.banks)
	}
	if sh.topology == "" {
		return "bus"
	}
	return sh.topology
}

// linkShapes covers every link-network shape: the bus, the banked bus,
// meshes and rings from one tile up to 128.
var linkShapes = []trafficShape{
	{0, "", 8}, {2, "", 8}, {4, "", 8}, {8, "", 8},
	{0, "mesh:1x1", 8}, {0, "mesh:1x4", 4}, {0, "mesh:3x4", 12}, {0, "mesh:8x16", 128},
	{0, "ring:1", 8}, {0, "ring:2", 2}, {0, "ring:6", 6}, {0, "ring:128", 128},
}

// delivered is one entry of a delivery trace: the cycle a message
// delivered at and the message's id, numbered in send order.
type delivered struct {
	at sim.Time
	id int
}

// traffic is what startTraffic leaves to watch: the delivery trace and
// the number of messages sent so far.
type traffic struct {
	out  []delivered
	sent int
}

// startTraffic schedules seeded random traffic on ic and returns the
// record that sends and deliveries update as the engine runs. Three
// quarters of count go out in bursts, 1 to 8 sends in one cycle at random
// cycles; up to a quarter more are replies, each sent with even odds from
// inside a delivery callback. Endpoints are tiles in [0, nodes) or
// VendorNode, one send in six goes to its own tile, and every key is
// random. Every draw happens in event order, so two networks that deliver
// alike draw alike, and the first divergence shows in the trace.
func startTraffic(eng *sim.Engine, ic Interconnect, nodes int, seed int64, count int) *traffic {
	rng := rand.New(rand.NewSource(seed))
	tr := new(traffic)
	endpoint := func() int {
		if rng.Intn(8) == 0 {
			return VendorNode
		}
		return rng.Intn(nodes)
	}
	replies := count / 4
	var send func()
	send = func() {
		id := tr.sent
		tr.sent++
		src, dst := endpoint(), endpoint()
		if rng.Intn(6) == 0 {
			dst = src
		}
		ic.Send(src, dst, rng.Uint64(), func() {
			tr.out = append(tr.out, delivered{eng.Now(), id})
			if replies > 0 && rng.Intn(2) == 0 {
				replies--
				send()
			}
		})
	}
	horizon := 2 * count
	for left := count - replies; left > 0; {
		k := min(left, 1+rng.Intn(8))
		left -= k
		eng.Schedule(sim.Time(rng.Intn(horizon)), func() {
			for range k {
				send()
			}
		})
	}
	return tr
}

// matchReference runs one seed of traffic on the link network and on the
// reference network and fails unless both deliver every message at the
// same cycle in the same order, with the same per-link counters. Each
// side first runs a different seed partway and is reset, so the
// comparison also covers Reset's claim to leave a fresh network.
func matchReference(t testing.TB, sh trafficShape, seed int64, count int) {
	t.Helper()
	occupancy := sim.Time(1 + uint64(seed)%4)
	run := func(ic Interconnect, eng *sim.Engine) (*traffic, []Stats) {
		startTraffic(eng, ic, sh.nodes, seed^0x5eed, count)
		eng.RunUntil(sim.Time(count / 2))
		eng.Reset()
		ic.Reset()
		tr := startTraffic(eng, ic, sh.nodes, seed, count)
		eng.Run()
		return tr, ic.BankStats()
	}
	eng := sim.NewEngine()
	gotTr, gotStats := run(NewInterconnect(eng, occupancy, sh.banks, sh.nodes, sh.topology), eng)
	ref := sim.NewEngine()
	wantTr, wantStats := run(newRefNetwork(ref, occupancy, sh.banks, sh.nodes, sh.topology), ref)
	got, want := gotTr.out, wantTr.out
	if len(got) != gotTr.sent || len(want) != wantTr.sent || len(got) != len(want) {
		t.Fatalf("%v seed %d: delivered %d of %d, the reference %d of %d",
			sh, seed, len(got), gotTr.sent, len(want), wantTr.sent)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%v seed %d: delivery %d is msg%d@%d, the reference's msg%d@%d",
				sh, seed, i, got[i].id, got[i].at, want[i].id, want[i].at)
		}
	}
	if !slices.Equal(gotStats, wantStats) {
		t.Fatalf("%v seed %d: per-link stats %+v, the reference's %+v", sh, seed, gotStats, wantStats)
	}
}

// TestLinkNetworkMatchesReference is the differential for the link
// network: on every shape, seeded random traffic must deliver exactly as
// on the reference network, message for message and cycle for cycle,
// with the same per-link counters.
func TestLinkNetworkMatchesReference(t *testing.T) {
	for _, sh := range linkShapes {
		t.Run(sh.String(), func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				matchReference(t, sh, seed, 400)
			}
		})
	}
}

// FuzzLinkNetwork fuzzes the differential over the shape, the traffic
// seed and the message count.
func FuzzLinkNetwork(f *testing.F) {
	f.Add(uint8(0), int64(1), uint16(50))
	f.Add(uint8(3), int64(7), uint16(300))
	f.Add(uint8(7), int64(-2), uint16(200))
	f.Add(uint8(11), int64(42), uint16(120))
	f.Fuzz(func(t *testing.T, shape uint8, seed int64, count uint16) {
		matchReference(t, linkShapes[int(shape)%len(linkShapes)], seed, 1+int(count)%600)
	})
}

// TestFabricZeroLoadLatency is the zero-load timing oracle: on an idle
// mesh or ring, one message from src to dst delivers after exactly
// (hops + 1) occupancies — hops is the Manhattan distance or the shorter
// arc, and the +1 is the ejection port — and counts hops + 1 crossings
// with no wait. Same-tile and vendor traffic cross one local port.
func TestFabricZeroLoadLatency(t *testing.T) {
	const occupancy = 3
	for _, spec := range []string{"mesh:3x4", "mesh:8x16", "ring:6", "ring:128"} {
		topo, err := ParseTopology(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		hops := func(s, d int) int {
			if topo.Kind == TopoRing {
				t := topo.Nodes
				return min((d-s+t)%t, (s-d+t)%t)
			}
			return abs(s/topo.Cols-d/topo.Cols) + abs(s%topo.Cols-d%topo.Cols)
		}
		eng := sim.NewEngine()
		ic := NewInterconnect(eng, occupancy, 0, topo.Nodes, spec)
		check := func(src, dst, hops int) {
			eng.Reset()
			ic.Reset()
			at := sim.Time(-1)
			ic.Send(src, dst, 0, func() { at = eng.Now() })
			eng.Run()
			st := ic.Stats()
			if want := sim.Time(hops+1) * occupancy; at != want {
				t.Fatalf("%s %d->%d: delivered at %d, want %d (%d hops + ejection)", spec, src, dst, at, want, hops)
			}
			if st.Messages != uint64(hops+1) || st.WaitCycles != 0 {
				t.Fatalf("%s %d->%d: stats %+v, want %d crossings and no wait", spec, src, dst, st, hops+1)
			}
		}
		for s := 0; s < topo.Nodes; s++ {
			for d := 0; d < topo.Nodes; d++ {
				check(s, d, hops(s, d))
			}
			check(s, VendorNode, 0)
			check(VendorNode, s, 0)
		}
	}
}

// TestLinkSlotsExclusive is the slot oracle: under random load on every
// shape, no link carries two messages in one slot. Stepping the engine
// one event at a time, each slot a link grants must end at least one
// occupancy after the slot it granted before, and at least one occupancy
// after the grant. Once the run is quiet, every link's busy cycles are
// its messages times the occupancy.
func TestLinkSlotsExclusive(t *testing.T) {
	const occupancy = 4
	for _, sh := range linkShapes {
		t.Run(sh.String(), func(t *testing.T) {
			eng := sim.NewEngine()
			ic := NewInterconnect(eng, occupancy, sh.banks, sh.nodes, sh.topology)
			n := ic.(*network)
			tr := startTraffic(eng, ic, sh.nodes, 3, 300)
			grants := make([]uint64, len(n.links))
			lastEnd := make([]sim.Time, len(n.links))
			for eng.Step() {
				now := eng.Now()
				for i := range n.links {
					l := &n.links[i]
					// Messages counts sends; those not yet granted are
					// still queued past the granted prefix.
					total := n.stats[i].Messages - uint64(l.n-l.granted)
					for k := grants[i]; k < total; k++ {
						pos := l.granted - int32(total-k)
						end := l.q[(l.head+pos)&int32(len(l.q)-1)].at
						if end < now+occupancy {
							t.Fatalf("link %d at cycle %d granted a slot ending at %d", i, now, end)
						}
						if k > 0 && end < lastEnd[i]+occupancy {
							t.Fatalf("link %d granted overlapping slots: ends %d then %d", i, lastEnd[i], end)
						}
						lastEnd[i] = end
					}
					grants[i] = total
				}
			}
			if len(tr.out) != tr.sent || queued(ic) != 0 {
				t.Fatalf("%d of %d delivered, %d still queued", len(tr.out), tr.sent, queued(ic))
			}
			for i, st := range ic.BankStats() {
				if st.BusyCycles != st.Messages*occupancy {
					t.Fatalf("link %d: %d busy cycles for %d messages", i, st.BusyCycles, st.Messages)
				}
				if grants[i] != st.Messages {
					t.Fatalf("link %d: saw %d grants for %d messages", i, grants[i], st.Messages)
				}
			}
		})
	}
}
