// Smoke test for the point-to-point interconnect topologies. The
// degenerate shapes (a 1×1 mesh, a 1-node ring) are pinned byte-identical
// to the single bus by the done-set equivalence harness
// (doneset_test.go); this file checks that each non-degenerate fabric
// executes.
package clockgate

import (
	"context"
	"strings"
	"testing"
)

// TestTopologyDoneCasesRun smoke-executes one representative done case of
// the topology matrix block per fabric kind at reduced scale: the
// non-degenerate machines must complete the paired run with finite
// metrics and per-link stats the CSV can render. (Full done-set coverage
// of the block rides in the E2E harness; this pins that each fabric kind
// at least executes before that suite runs.)
func TestTopologyDoneCasesRun(t *testing.T) {
	opts := DefaultCampaignOptions()
	opts.Scale = 0.01
	session := NewSession(opts)
	defer session.Close()

	var cells []Cell
	for _, topo := range MatrixTopologies() {
		cells = append(cells, Cell{
			Index: len(cells), App: Intruder, Processors: 64,
			Topology: topo, Seed: opts.Seed,
		})
	}
	outs, err := session.RunCells(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range outs {
		if out.Gated.Cycles <= 0 || out.Ungated.Cycles <= 0 {
			t.Errorf("%s: non-positive cycle count", cells[i].Label())
		}
		if out.Gated.BusStats.Messages == 0 {
			t.Errorf("%s: fabric carried no messages", cells[i].Label())
		}
		if len(out.Gated.BankStats) < 2 {
			t.Errorf("%s: %d per-link stat entries, want one per link/port",
				cells[i].Label(), len(out.Gated.BankStats))
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
