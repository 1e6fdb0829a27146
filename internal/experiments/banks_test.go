package experiments

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/config"
	"repro/internal/stamp"
)

// TestTraceCacheKeyAudit pins the trace-cache key audit both ways. The
// interconnect shape must NOT be in the key: Banks and Topology change
// the machine, never the workload, so cells differing only in those axes
// share one generated trace (this sharing is what makes the interconnect
// and topology differential goldens compare identical workloads). The processor count
// MUST be in the key: cells at different machine widths generate
// different workloads even when every other axis matches.
func TestTraceCacheKeyAudit(t *testing.T) {
	s := NewSession(Options{Seed: 7, Scale: 0.02})
	defer s.Close()

	base := Cell{App: stamp.Intruder, Processors: 8, Seed: 7}
	banked := base
	banked.Banks = 4
	meshed := base
	meshed.Topology = "mesh"
	if _, err := s.RunCells(context.Background(), []Cell{base, banked, meshed}); err != nil {
		t.Fatal(err)
	}
	entries := len(traceCacheKeys(s))
	if entries != 1 {
		t.Fatalf("cells differing only in interconnect shape occupy %d trace-cache entries, want 1", entries)
	}

	wider := base
	wider.Processors = 16
	if _, err := s.RunCells(context.Background(), []Cell{wider}); err != nil {
		t.Fatal(err)
	}
	entries = len(traceCacheKeys(s))
	if entries != 2 {
		t.Fatalf("cells at different processor counts occupy %d trace-cache entries, want 2 (processor count must be in the key)", entries)
	}
}

// TestCheckpointKeyIncludesBanks is the collision regression for the
// checkpoint cell key: two cells that differ only in interconnect shape
// compute different timings, so a result recorded for one must never be
// replayed for the other. Before the key carried Banks, a Banks=4 lookup
// would have restored the Banks=1 record.
func TestCheckpointKeyIncludesBanks(t *testing.T) {
	one := Cell{App: stamp.Intruder, Processors: 8, Seed: 7, Banks: 1}
	four := one
	four.Banks = 4
	single := one
	single.Banks = 0
	if cellKey(one) == cellKey(four) || cellKey(one) == cellKey(single) {
		t.Fatalf("cells differing only in interconnect shape collide: %q / %q / %q",
			cellKey(single), cellKey(one), cellKey(four))
	}

	ck, err := OpenCheckpoint(filepath.Join(t.TempDir(), "ck.jsonl"), "fp")
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	s := NewSession(Options{Seed: 7, Scale: 0.02})
	defer s.Close()
	outs, err := s.RunCells(context.Background(), []Cell{one})
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Record(one, outs[0]); err != nil {
		t.Fatal(err)
	}
	if _, hit := ck.Lookup(four); hit {
		t.Fatal("Banks=4 lookup replayed the Banks=1 record (checkpoint key collision)")
	}
	if _, hit := ck.Lookup(single); hit {
		t.Fatal("single-bus lookup replayed the Banks=1 record (checkpoint key collision)")
	}
	if _, hit := ck.Lookup(one); !hit {
		t.Fatal("identical cell missed its own record")
	}
}

// TestCellSpecConfiguresBanks checks the cell-to-machine plumbing: a
// cell's interconnect shape reaches the machine config, composes with a
// named variant, and the zero value leaves the single bus selected.
func TestCellSpecConfiguresBanks(t *testing.T) {
	s := NewSession(Options{Seed: 7, Scale: 0.02})
	defer s.Close()
	for _, tc := range []struct {
		cell      Cell
		wantBanks int
		wantPol   config.PolicyKind
	}{
		{Cell{App: stamp.Genome, Processors: 4, Seed: 7}, 0, ""},
		{Cell{App: stamp.Genome, Processors: 4, Seed: 7, Banks: 4}, 4, ""},
		{Cell{App: stamp.Genome, Processors: 4, Seed: 7, Banks: 8,
			Variant: PolicyVariant(config.PolicyFixed)}, 8, config.PolicyFixed},
	} {
		rs, err := s.cellSpec(tc.cell)
		if err != nil {
			t.Fatal(err)
		}
		cfg := rs.Config(false)
		if cfg.Machine.Banks != tc.wantBanks {
			t.Errorf("%s: machine banks %d, want %d", tc.cell.Label(), cfg.Machine.Banks, tc.wantBanks)
		}
		if cfg.Gating.Policy != tc.wantPol {
			t.Errorf("%s: policy %q, want %q (variant must survive the banks mutator)",
				tc.cell.Label(), cfg.Gating.Policy, tc.wantPol)
		}
	}
}
