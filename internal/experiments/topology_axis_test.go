package experiments

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/config"
	"repro/internal/stamp"
)

// TestCheckpointKeyIncludesTopology is the collision regression for the
// topology axis of the checkpoint cell key: cells that differ only in
// interconnect topology compute different timings, so a result recorded
// for one must never be replayed for another. The sentinel pair is the
// exception: "" and "bus" both name the default bus machine and must
// collide — but "mesh:1x1", whose cycle-equivalence to the bus is a
// tested engine property, stays a distinct key on purpose.
func TestCheckpointKeyIncludesTopology(t *testing.T) {
	base := Cell{App: stamp.Intruder, Processors: 8, Seed: 7}
	mesh := base
	mesh.Topology = "mesh"
	tiny := base
	tiny.Topology = "mesh:1x1"
	spelled := base
	spelled.Topology = "bus"
	if cellKey(base) == cellKey(mesh) || cellKey(base) == cellKey(tiny) {
		t.Fatalf("cells differing only in topology collide: %q / %q / %q",
			cellKey(base), cellKey(mesh), cellKey(tiny))
	}
	if cellKey(base) != cellKey(spelled) {
		t.Fatalf("topology sentinels diverge: %q vs %q (\"\" and \"bus\" must agree)",
			cellKey(base), cellKey(spelled))
	}

	ck, err := OpenCheckpoint(filepath.Join(t.TempDir(), "ck.jsonl"), "fp")
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	s := NewSession(Options{Seed: 7, Scale: 0.02})
	defer s.Close()
	outs, err := s.RunCells(context.Background(), []Cell{base})
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Record(base, outs[0]); err != nil {
		t.Fatal(err)
	}
	if _, hit := ck.Lookup(mesh); hit {
		t.Fatal("mesh lookup replayed the bus record (checkpoint key collision)")
	}
	if _, hit := ck.Lookup(tiny); hit {
		t.Fatal("mesh:1x1 lookup replayed the bus record (degenerate shapes must stay distinct keys)")
	}
	if _, hit := ck.Lookup(spelled); !hit {
		t.Fatal("spelled-out \"bus\" missed the default-topology record (sentinels must agree)")
	}
}

// TestCellSpecConfiguresTopology checks the cell-to-machine plumbing: a
// cell's topology reaches the machine config, composes with a named
// variant, and the zero value leaves the topology unset (whatever Banks
// selects).
func TestCellSpecConfiguresTopology(t *testing.T) {
	s := NewSession(Options{Seed: 7, Scale: 0.02})
	defer s.Close()
	for _, tc := range []struct {
		cell     Cell
		wantTopo string
		wantPol  config.PolicyKind
	}{
		{Cell{App: stamp.Genome, Processors: 4, Seed: 7}, "", ""},
		{Cell{App: stamp.Genome, Processors: 4, Seed: 7, Topology: "mesh:2x2"}, "mesh:2x2", ""},
		{Cell{App: stamp.Genome, Processors: 4, Seed: 7, Topology: "ring",
			Variant: PolicyVariant(config.PolicyFixed)}, "ring", config.PolicyFixed},
	} {
		rs, err := s.cellSpec(tc.cell)
		if err != nil {
			t.Fatal(err)
		}
		cfg := rs.Config(false)
		if cfg.Machine.Topology != tc.wantTopo {
			t.Errorf("%s: machine topology %q, want %q", tc.cell.Label(), cfg.Machine.Topology, tc.wantTopo)
		}
		if cfg.Gating.Policy != tc.wantPol {
			t.Errorf("%s: policy %q, want %q (variant must survive the topology mutator)",
				tc.cell.Label(), cfg.Gating.Policy, tc.wantPol)
		}
	}
}
