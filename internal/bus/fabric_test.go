package bus

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

func TestParseTopology(t *testing.T) {
	for _, tc := range []struct {
		spec  string
		procs int
		want  string // canonical form, or "" for a parse error
	}{
		{"", 8, "bus"},
		{"bus", 8, "bus"},
		{"xbar", 8, "xbar:8"},
		{"xbar:4", 128, "xbar:4"},
		{"ring", 16, "ring:16"},
		{"ring:1", 8, "ring:1"},
		{"mesh", 16, "mesh:4x4"},
		{"mesh", 8, "mesh:2x4"},
		{"mesh", 7, "mesh:1x7"}, // prime: degenerates to a row
		{"mesh", 128, "mesh:8x16"},
		{"mesh:1x1", 8, "mesh:1x1"},
		{"mesh:2x3", 8, "mesh:2x3"},
		{"mesh:8x16", 1, "mesh:8x16"},
		{"ring:128", 1, "ring:128"},
		{"xbar:128", 1, "xbar:128"},
		{"bus:4", 8, ""},
		{"mesh:0x4", 8, ""},
		{"mesh:4", 8, ""},
		{"ring:0", 8, ""},
		{"ring:x", 8, ""},
		{"torus", 8, ""},
		// Tile counts are capped at MaxNodes whatever the processor count:
		// rows*cols would wrap to 0 tiles here, and the ring would build
		// 3e8 links.
		{"mesh:4294967296x4294967296", 8, ""},
		{"ring:100000000", 8, ""},
		{"xbar:129", 128, ""},
		{"mesh:16x9", 128, ""},
		{"mesh:1x129", 8, ""},
		{"ring", 129, ""},
	} {
		topo, err := ParseTopology(tc.spec, tc.procs)
		if tc.want == "" {
			if err == nil {
				t.Errorf("ParseTopology(%q, %d) = %+v, want error", tc.spec, tc.procs, topo)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseTopology(%q, %d): %v", tc.spec, tc.procs, err)
			continue
		}
		if got := topo.String(); got != tc.want {
			t.Errorf("ParseTopology(%q, %d) = %q, want %q", tc.spec, tc.procs, got, tc.want)
		}
		// The canonical form is a fixed point: re-parsing it under any
		// processor count yields the same topology (checkpoint keys
		// depend on this stability).
		again, err := ParseTopology(topo.String(), 1)
		if err != nil || again != topo {
			t.Errorf("canonical %q did not round-trip: %+v / %v", topo.String(), again, err)
		}
	}
}

func TestValidateTopology(t *testing.T) {
	for _, tc := range []struct {
		spec        string
		banks       int
		wantInvalid bool
	}{
		{"", 0, false},
		{"", 4, false},
		{"bus", 8, false},
		{"mesh", 0, false},
		{"mesh", 4, true}, // fabrics don't compose with the Banks axis
		{"xbar", 1, true},
		{"torus", 0, true},
	} {
		err := ValidateTopology(tc.spec, tc.banks, 8)
		if (err != nil) != tc.wantInvalid {
			t.Errorf("ValidateTopology(%q, banks=%d) = %v, wantInvalid=%v", tc.spec, tc.banks, err, tc.wantInvalid)
		}
	}
}

// TestMeshRouteXY pins dimension-order routing on a 3x4 mesh, walking the
// cursor Send uses: column hops first, then row hops, every link a real
// adjacency, hop count the Manhattan distance, then the ejection port.
func TestMeshRouteXY(t *testing.T) {
	topo, err := ParseTopology("mesh:3x4", 12)
	if err != nil {
		t.Fatal(err)
	}
	f := NewInterconnect(sim.NewEngine(), 2, 0, topo.Nodes, topo.String()).(*network)
	for s := 0; s < topo.Nodes; s++ {
		for d := 0; d < topo.Nodes; d++ {
			if s == d {
				continue
			}
			path := walk(t, f, s, d)
			manhattan := abs(s/topo.Cols-d/topo.Cols) + abs(s%topo.Cols-d%topo.Cols)
			if len(path) != manhattan {
				t.Fatalf("route %d->%d has %d hops, want Manhattan %d", s, d, len(path), manhattan)
			}
			at := s
			sawRowHop := false
			for _, link := range path {
				from, to := linkEnds(f, link)
				if from == to {
					t.Fatalf("route %d->%d crosses local port %d mid-route", s, d, from)
				}
				if from != at {
					t.Fatalf("route %d->%d: link %d starts at %d, cursor at %d", s, d, link, from, at)
				}
				if from/topo.Cols != to/topo.Cols { // row changed: a Y hop
					sawRowHop = true
				} else if sawRowHop {
					t.Fatalf("route %d->%d hops X after Y (not dimension-ordered)", s, d)
				}
				at = to
			}
			if at != d {
				t.Fatalf("route %d->%d ends at %d", s, d, at)
			}
		}
	}
}

// TestRingRouteShorterArc pins the ring's direction choice, walking the
// cursor Send uses: the shorter arc wins, ties go clockwise.
func TestRingRouteShorterArc(t *testing.T) {
	topo, err := ParseTopology("ring:6", 6)
	if err != nil {
		t.Fatal(err)
	}
	f := NewInterconnect(sim.NewEngine(), 2, 0, 6, topo.String()).(*network)
	for s := 0; s < 6; s++ {
		for d := 0; d < 6; d++ {
			if s == d {
				continue
			}
			path := walk(t, f, s, d)
			cw := (d - s + 6) % 6
			ccw := (s - d + 6) % 6
			wantHops := cw
			if ccw < cw {
				wantHops = ccw
			}
			if len(path) != wantHops {
				t.Fatalf("route %d->%d has %d hops, want %d", s, d, len(path), wantHops)
			}
			at := s
			for _, link := range path {
				from, to := linkEnds(f, link)
				if from != at {
					t.Fatalf("route %d->%d: link starts at %d, cursor at %d", s, d, from, at)
				}
				at = to
			}
			if at != d {
				t.Fatalf("route %d->%d ends at %d", s, d, at)
			}
			if cw <= ccw { // tie or shorter: must be the clockwise arc
				if from, to := linkEnds(f, path[0]); (from+1)%6 != to {
					t.Fatalf("route %d->%d (cw %d, ccw %d) did not go clockwise", s, d, cw, ccw)
				}
			}
		}
	}
}

// TestFabricHopTiming pins the per-hop occupancy model: on an otherwise
// idle 1x4 mesh, a 3-column crossing plus the ejection port costs 4 hops
// of occupancy, and each link charges one crossing.
func TestFabricHopTiming(t *testing.T) {
	eng := sim.NewEngine()
	f := NewInterconnect(eng, 5, 0, 4, "mesh:1x4")
	var delivered sim.Time = -1
	f.Send(0, 3, 0, func() { delivered = eng.Now() })
	eng.Run()
	if delivered != 4*5 {
		t.Fatalf("delivered at %d, want 20 (3 east hops + ejection, occupancy 5)", delivered)
	}
	st := f.Stats()
	if st.Messages != 4 || st.BusyCycles != 20 || st.WaitCycles != 0 {
		t.Fatalf("stats %+v, want 4 crossings, 20 busy, 0 wait", st)
	}
}

// TestSingleTileFabricMatchesSingleBus is the bus-level form of the
// degenerate-topology rows of TestDoneSetEquivalence: a 1x1 mesh and a
// 1-node ring have exactly one link, and a randomized schedule of sends
// (local and vendor) must deliver at exactly the cycles the single bus
// delivers them, with its stats (see matchOneLink).
func TestSingleTileFabricMatchesSingleBus(t *testing.T) {
	matchOneLink(t, oneLinkShape{"mesh:1x1", 0, "mesh:1x1"}, oneLinkShape{"ring:1", 0, "ring:1"})
}

// TestFabricSameRouteFIFO pins the ordering contract the directory relies
// on: two messages between the same endpoints follow the same route and
// must deliver in send order, with per-hop queueing accruing wait cycles.
func TestFabricSameRouteFIFO(t *testing.T) {
	for _, spec := range []string{"mesh:2x4", "ring:8"} {
		eng := sim.NewEngine()
		f := NewInterconnect(eng, 3, 0, 8, spec)
		var order []int
		for i := 0; i < 5; i++ {
			i := i
			f.Send(1, 6, 0, func() { order = append(order, i) })
		}
		eng.Run()
		if fmt.Sprint(order) != "[0 1 2 3 4]" {
			t.Fatalf("%s: same-route delivery order %v, want FIFO", spec, order)
		}
		if st := f.Stats(); st.WaitCycles == 0 {
			t.Fatalf("%s: five same-route messages accrued no wait", spec)
		}
	}
}

// TestFabricVendorSideband pins the token-ordering prerequisite: all
// vendor traffic, from any tile, crosses exactly tile 0's local port —
// one FIFO — so replies issued in acquisition order deliver in that
// order on every geometry.
func TestFabricVendorSideband(t *testing.T) {
	eng := sim.NewEngine()
	f := NewInterconnect(eng, 2, 0, 8, "mesh:2x4")
	var order []int
	f.Send(7, VendorNode, 0, func() { order = append(order, 7) })
	f.Send(VendorNode, 3, 0, func() { order = append(order, 3) })
	f.Send(0, VendorNode, 0, func() { order = append(order, 0) })
	eng.Run()
	if fmt.Sprint(order) != "[7 3 0]" {
		t.Fatalf("vendor traffic order %v, want FIFO through one port", order)
	}
	bs := f.BankStats()
	if bs[0].Messages != 3 {
		t.Fatalf("tile 0 local port carried %d messages, want all 3", bs[0].Messages)
	}
	for i, s := range bs[1:] {
		if s.Messages != 0 {
			t.Fatalf("link %d carried vendor traffic (%d messages)", i+1, s.Messages)
		}
	}
}

// TestXbarPairContention pins the crossbar's contention model: messages
// on the same src->dst pair serialize in FIFO slots; messages on any
// other pair — even sharing a port — cross in parallel.
func TestXbarPairContention(t *testing.T) {
	eng := sim.NewEngine()
	x := NewInterconnect(eng, 4, 0, 4, "xbar")
	times := map[string]sim.Time{}
	x.Send(0, 1, 0, func() { times["a"] = eng.Now() })
	x.Send(0, 1, 0, func() { times["b"] = eng.Now() }) // same pair: queues
	x.Send(0, 2, 0, func() { times["c"] = eng.Now() }) // same src, other dst: parallel
	x.Send(3, 1, 0, func() { times["d"] = eng.Now() }) // other src, same dst: parallel
	eng.Run()
	if times["a"] != 4 || times["c"] != 4 || times["d"] != 4 {
		t.Fatalf("uncontended crossings at a=%d c=%d d=%d, want all 4", times["a"], times["c"], times["d"])
	}
	if times["b"] != 8 {
		t.Fatalf("same-pair crossing at %d, want 8 (slot after the first)", times["b"])
	}
	st := x.Stats()
	if st.Messages != 4 || st.WaitCycles != 4 || st.BusyCycles != 16 {
		t.Fatalf("stats %+v, want 4 messages, 4 wait, 16 busy", st)
	}
	bs := x.BankStats()
	if bs[0].Messages != 3 || bs[3].Messages != 1 {
		t.Fatalf("per-port stats %+v, want 3 on port 0 and 1 on port 3", bs)
	}
}

// TestXbarVendorSerializes pins the crossbar's vendor sideband: all
// vendor traffic reserves the (0,0) pair, one FIFO, any source port.
func TestXbarVendorSerializes(t *testing.T) {
	eng := sim.NewEngine()
	x := NewInterconnect(eng, 4, 0, 4, "xbar")
	var order []int
	x.Send(3, VendorNode, 0, func() { order = append(order, 3) })
	x.Send(VendorNode, 2, 0, func() { order = append(order, 2) })
	x.Send(1, VendorNode, 0, func() { order = append(order, 1) })
	eng.Run()
	if fmt.Sprint(order) != "[3 2 1]" {
		t.Fatalf("vendor traffic order %v, want FIFO through the (0,0) pair", order)
	}
	if st := x.Stats(); st.WaitCycles != 4+8 {
		t.Fatalf("vendor traffic wait %d, want 12 (slots at 0, 4, 8)", st.WaitCycles)
	}
}

// TestFabricXbarReset pins the Reset contract on a pumped banked bus, a
// mesh and the crossbar: a Reset (with the engine reset alongside) in the
// middle of a run empties every queue, frees every ledger and zeroes the
// counters, and a rerun of the schedule delivers at the cycles, with the
// counters, of a run on the freshly built interconnect.
func TestFabricXbarReset(t *testing.T) {
	for _, sh := range []struct {
		name     string
		banks    int
		topology string
	}{
		{"banks=4", 4, ""},
		{"mesh", 0, "mesh:2x2"},
		{"xbar", 0, "xbar"},
	} {
		eng := sim.NewEngine()
		ic := NewInterconnect(eng, 3, sh.banks, 4, sh.topology)
		run := func(until sim.Time) (last sim.Time, st Stats) {
			for i := 0; i < 8; i++ {
				ic.Send(i%4, (i+1)%4, uint64(i), func() { last = eng.Now() })
			}
			eng.RunUntil(until)
			return last, ic.Stats()
		}
		last1, st1 := run(sim.MaxTime)
		eng.Reset()
		ic.Reset()
		run(4) // abandoned mid-flight
		eng.Reset()
		ic.Reset()
		if x, ok := ic.(*Xbar); ok {
			for pair, at := range x.nextFree {
				if at != 0 {
					t.Fatalf("xbar: pair %d reserved until %d after reset", pair, at)
				}
			}
		} else if k := queued(ic); k != 0 || ic.(*network).pumpPending {
			t.Fatalf("%s: queued %d (pump armed %v) after reset", sh.name, k, ic.(*network).pumpPending)
		}
		if st := ic.Stats(); st != (Stats{}) {
			t.Fatalf("%s: stats %+v after reset, want zero", sh.name, st)
		}
		last2, st2 := run(sim.MaxTime)
		if last1 != last2 || st1 != st2 {
			t.Fatalf("%s: rerun after reset diverged: %d/%+v vs %d/%+v", sh.name, last1, st1, last2, st2)
		}
	}
}

// FuzzMeshRoute fuzzes the XY routing cursor over arbitrary geometries and
// endpoint pairs: the route must follow real adjacencies from src to dst,
// X strictly before Y, with hop count exactly the Manhattan distance, and
// end on dst's local port.
func FuzzMeshRoute(f *testing.F) {
	f.Add(uint8(4), uint8(4), uint16(0), uint16(15))
	f.Add(uint8(1), uint8(1), uint16(0), uint16(0))
	f.Add(uint8(8), uint8(16), uint16(127), uint16(3))
	f.Add(uint8(3), uint8(5), uint16(14), uint16(14))
	f.Fuzz(func(t *testing.T, rowsRaw, colsRaw uint8, srcRaw, dstRaw uint16) {
		rows := int(rowsRaw)%16 + 1
		cols := int(colsRaw)%16 + 1
		n := rows * cols
		src := int(srcRaw) % n
		dst := int(dstRaw) % n
		fb := newNetwork(sim.NewEngine(), 1, Topology{Kind: TopoMesh, Nodes: n, Rows: rows, Cols: cols}, 0)
		if src == dst {
			return
		}
		path := walk(t, fb, src, dst)
		manhattan := abs(src/cols-dst/cols) + abs(src%cols-dst%cols)
		if len(path) != manhattan {
			t.Fatalf("mesh %dx%d route %d->%d: %d hops, want Manhattan %d", rows, cols, src, dst, len(path), manhattan)
		}
		at := src
		sawRowHop := false
		for _, link := range path {
			if link < n || link >= len(fb.links) {
				t.Fatalf("mesh %dx%d route %d->%d uses link %d outside the directional range [%d,%d)",
					rows, cols, src, dst, link, n, len(fb.links))
			}
			from, to := linkEnds(fb, link)
			if from != at {
				t.Fatalf("mesh %dx%d route %d->%d: link %d starts at %d, cursor at %d", rows, cols, src, dst, link, from, at)
			}
			dr := abs(from/cols - to/cols)
			dc := abs(from%cols - to%cols)
			if dr+dc != 1 {
				t.Fatalf("mesh %dx%d route %d->%d: link %d is not an adjacency (%d->%d)", rows, cols, src, dst, link, from, to)
			}
			if dr == 1 {
				sawRowHop = true
			} else if sawRowHop {
				t.Fatalf("mesh %dx%d route %d->%d hops X after Y", rows, cols, src, dst)
			}
			at = to
		}
		if at != dst {
			t.Fatalf("mesh %dx%d route %d->%d ends at %d", rows, cols, src, dst, at)
		}
	})
}

// walk drives the routing cursor Send uses from tile s to tile d (s != d)
// and returns the directional links it crosses. The last hop must be d's
// local port, which walk checks and leaves off.
func walk(t testing.TB, f *network, s, d int) []int {
	t.Helper()
	var op hopOp
	f.startRoute(&op, s, d)
	var path []int
	for !op.last {
		if len(path) > len(f.links) {
			t.Fatalf("route %d->%d does not end", s, d)
		}
		path = append(path, f.hop(&op))
	}
	if eject := path[len(path)-1]; eject != d {
		t.Fatalf("route %d->%d ejects through link %d, want local port %d", s, d, eject, d)
	}
	return path[:len(path)-1]
}

// linkEnds decodes a mesh or ring link index back to its (from, to)
// tiles; a local port decodes to (tile, tile). It inverts the link
// layout independently of the router, so the route tests can check that
// routes follow real adjacencies.
func linkEnds(f *network, idx int) (from, to int) {
	n := f.topo.Nodes
	if idx < n {
		return idx, idx
	}
	if f.topo.Kind == TopoRing {
		if idx < 2*n {
			i := idx - n
			return i, (i + 1) % n
		}
		i := idx - 2*n
		return i, (i - 1 + n) % n
	}
	rows, cols := f.topo.Rows, f.topo.Cols
	idx -= n
	if idx < rows*(cols-1) { // east
		r, c := idx/(cols-1), idx%(cols-1)
		return r*cols + c, r*cols + c + 1
	}
	idx -= rows * (cols - 1)
	if idx < rows*(cols-1) { // west
		r, c := idx/(cols-1), idx%(cols-1)
		return r*cols + c + 1, r*cols + c
	}
	idx -= rows * (cols - 1)
	if idx < cols*(rows-1) { // south
		c, r := idx/(rows-1), idx%(rows-1)
		return r*cols + c, (r+1)*cols + c
	}
	idx -= cols * (rows - 1)
	c, r := idx/(rows-1), idx%(rows-1) // north
	return (r+1)*cols + c, r*cols + c
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
