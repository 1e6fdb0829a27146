// Timing pins for every interconnect shape. The degenerate shapes (banks=1,
// a 1×1 mesh, a 1-node ring) are pinned byte-identical to the single bus
// by the done-set equivalence harness (doneset_test.go); this file pins
// the cycle counts and interconnect counters of one 64-processor cell on
// the single bus and each wider shape, so a timing change on any of them
// fails the tier-1 suite and not only the bench goldens.
package clockgate

import (
	"context"
	"strings"
	"testing"

	"repro/internal/bus"
)

// topologyPin is one shape's recorded outcome: its count of independent
// resources (banks, links or ports), the ungated and gated cycle counts
// and the gated run's aggregate interconnect counters.
type topologyPin struct {
	name     string
	banks    int
	topology string
	links    int
	ungated  int64
	gated    int64
	bus      bus.Stats
}

// TestTopologyDoneCasesRun executes one intruder cell at 64 processors and
// reduced scale on the single bus, the 4-banked bus and every fabric kind
// of the topology matrix block. Each cell must reproduce its recorded
// cycle counts and gated interconnect counters exactly, carry one stat
// entry per bank, link or port, and the fabrics must render their shape
// in the CSV.
func TestTopologyDoneCasesRun(t *testing.T) {
	pins := []topologyPin{
		{"bus", 0, "", 1, 53196, 54540, bus.Stats{Messages: 8348, BusyCycles: 16696, WaitCycles: 76489, Rounds: 4532}},
		{"banks=4", 4, "", 4, 55199, 56873, bus.Stats{Messages: 8824, BusyCycles: 17646, WaitCycles: 28900, Rounds: 5728}},
		{"xbar", 0, "xbar", 64, 55186, 54580, bus.Stats{Messages: 8157, BusyCycles: 16314, WaitCycles: 2405, Rounds: 8157}},
		{"mesh", 0, "mesh", 288, 55854, 62794, bus.Stats{Messages: 59225, BusyCycles: 118448, WaitCycles: 18906, Rounds: 56225}},
		{"ring", 0, "ring", 192, 65158, 61524, bus.Stats{Messages: 151029, BusyCycles: 302054, WaitCycles: 20245, Rounds: 147554}},
	}
	if got := MatrixTopologies(); len(got) != 3 || got[0] != "xbar" || got[1] != "mesh" || got[2] != "ring" {
		t.Fatalf("matrix topologies %v, want the pinned xbar, mesh, ring", got)
	}

	opts := DefaultCampaignOptions()
	opts.Scale = 0.01
	session := NewSession(opts)
	defer session.Close()

	var cells []Cell
	for _, p := range pins {
		cells = append(cells, Cell{
			Index: len(cells), App: Intruder, Processors: 64,
			Banks: p.banks, Topology: p.topology, Seed: opts.Seed,
		})
	}
	outs, err := session.RunCells(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range outs {
		p := pins[i]
		if int64(out.Ungated.Cycles) != p.ungated || int64(out.Gated.Cycles) != p.gated {
			t.Errorf("%s: cycles ungated %d gated %d, want %d and %d",
				p.name, out.Ungated.Cycles, out.Gated.Cycles, p.ungated, p.gated)
		}
		if out.Gated.BusStats != p.bus {
			t.Errorf("%s: gated interconnect stats %+v, want %+v", p.name, out.Gated.BusStats, p.bus)
		}
		if len(out.Gated.BankStats) != p.links {
			t.Errorf("%s: %d per-resource stat entries, want %d", p.name, len(out.Gated.BankStats), p.links)
		}
	}
	campaign := &Campaign{Options: opts, Cells: cells, Outcomes: outs}
	var buf strings.Builder
	if err := campaign.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	for _, topo := range MatrixTopologies() {
		if !strings.Contains(buf.String(), ","+topo) {
			t.Errorf("CSV lacks topology column value %q", topo)
		}
	}
}
