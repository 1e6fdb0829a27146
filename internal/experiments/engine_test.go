package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/stamp"
)

func TestCellsCanonicalOrder(t *testing.T) {
	o := quickOptions()
	cells := o.Cells()
	if len(cells) != 4 {
		t.Fatalf("%d cells for 2 apps x 2 processor counts", len(cells))
	}
	want := []struct {
		app stamp.App
		np  int
	}{
		{stamp.Intruder, 2}, {stamp.Intruder, 4},
		{stamp.Genome, 2}, {stamp.Genome, 4},
	}
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d has Index %d", i, c.Index)
		}
		if c.App != want[i].app || c.Processors != want[i].np {
			t.Errorf("cell %d is %s/%d, want %s/%d", i, c.App, c.Processors, want[i].app, want[i].np)
		}
		if c.Seed != o.Seed {
			t.Errorf("cell %d seed %d: shared-seed campaign must use the campaign seed", i, c.Seed)
		}
	}
}

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values from the canonical SplitMix64 sequence with
	// state 0: successive outputs of nextSeed() in Vigna's C version.
	got := SplitMix64(0)
	if got != 0xe220a8397b1dcdaf {
		t.Fatalf("SplitMix64(0) = %#x", got)
	}
	if SplitMix64(1) == SplitMix64(2) {
		t.Fatal("adjacent inputs collide")
	}
}

func TestCellSeedIndependentOfPartition(t *testing.T) {
	// The seed of cell i must depend only on (campaign seed, i).
	for i := 0; i < 100; i++ {
		if CellSeed(42, i) != CellSeed(42, i) {
			t.Fatal("CellSeed not a pure function")
		}
	}
	if CellSeed(42, 0) == CellSeed(43, 0) {
		t.Fatal("campaign seed ignored")
	}
}

func TestRunCellsWorkerCountsAgree(t *testing.T) {
	o := quickOptions()
	cells := o.Cells()
	seq, err := newSession(t, o).RunCells(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8, 100} {
		op := o
		op.Workers = workers
		par, err := newSession(t, op).RunCells(context.Background(), cells)
		if err != nil {
			t.Fatal(err)
		}
		if len(par) != len(seq) {
			t.Fatalf("workers=%d: %d outcomes, want %d", workers, len(par), len(seq))
		}
		for i := range seq {
			if seq[i].Comparison != par[i].Comparison {
				t.Errorf("workers=%d cell %d: comparison diverged:\nseq %+v\npar %+v",
					workers, i, seq[i].Comparison, par[i].Comparison)
			}
		}
	}
}

func TestRunCellsErrorIsDeterministic(t *testing.T) {
	o := quickOptions()
	cells := o.Cells()
	// Poison two cells; the reported error must name the lowest index
	// regardless of worker count or completion order.
	cells[1].App = "no-such-app"
	cells[3].App = "also-missing"
	for _, workers := range []int{1, 4} {
		op := o
		op.Workers = workers
		_, err := newSession(t, op).RunCells(context.Background(), cells)
		if err == nil {
			t.Fatalf("workers=%d: poisoned campaign succeeded", workers)
		}
		if !strings.Contains(err.Error(), "cell 1") || !strings.Contains(err.Error(), "no-such-app") {
			t.Errorf("workers=%d: error %q does not name the lowest failing cell", workers, err)
		}
	}
}

func TestCellLabel(t *testing.T) {
	for _, tc := range []struct {
		cell Cell
		want string
	}{
		{Cell{App: stamp.Genome, Processors: 8}, "genome/8p"},
		{Cell{App: stamp.Genome, Processors: 8, W0: 2}, "genome/8p/W0=2"},
		{Cell{App: stamp.Intruder, Processors: 4, W0: 8, Contention: ContentionHigh},
			"intruder/4p/W0=8/high"},
		{Cell{App: stamp.Yada, Processors: 16, Contention: ContentionBase}, "yada/16p"},
	} {
		if got := tc.cell.Label(); got != tc.want {
			t.Errorf("label %q, want %q", got, tc.want)
		}
	}
}
