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

func TestCellsDeriveSeeds(t *testing.T) {
	o := quickOptions()
	o.DeriveSeeds = true
	cells := o.Cells()
	seen := map[uint64]int{}
	for i, c := range cells {
		if c.Seed == o.Seed {
			t.Errorf("cell %d kept the campaign seed", i)
		}
		if c.Seed != CellSeed(o.Seed, i) {
			t.Errorf("cell %d seed %d, want CellSeed(%d, %d)=%d", i, c.Seed, o.Seed, i, CellSeed(o.Seed, i))
		}
		if j, dup := seen[c.Seed]; dup {
			t.Errorf("cells %d and %d share seed %d", j, i, c.Seed)
		}
		seen[c.Seed] = i
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

func TestShardCellsPartition(t *testing.T) {
	cells := make([]Cell, 10)
	for i := range cells {
		cells[i] = Cell{Index: i}
	}
	for _, count := range []int{1, 2, 3, 4, 7, 10, 11} {
		total := 0
		next := 0
		for idx := 0; idx < count; idx++ {
			part, err := ShardCells(cells, Shard{Index: idx, Count: count})
			if err != nil {
				t.Fatalf("shard %d/%d: %v", idx, count, err)
			}
			for _, c := range part {
				if c.Index != next {
					t.Fatalf("shard %d/%d: cell %d out of order (want %d)", idx, count, c.Index, next)
				}
				next++
			}
			total += len(part)
		}
		if total != len(cells) {
			t.Fatalf("count=%d covered %d of %d cells", count, total, len(cells))
		}
	}
}

func TestShardValidation(t *testing.T) {
	cells := []Cell{{}}
	for _, s := range []Shard{
		{Index: -1, Count: 2},
		{Index: 2, Count: 2},
		{Index: 0, Count: -1},
		{Index: 1, Count: 0},
	} {
		if _, err := ShardCells(cells, s); err == nil {
			t.Errorf("shard %+v accepted", s)
		}
	}
	if _, err := ShardCells(cells, Shard{}); err != nil {
		t.Errorf("zero shard rejected: %v", err)
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

func TestRunShardedCampaign(t *testing.T) {
	o := quickOptions()
	full, err := newSession(t, o).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var got []*Campaign
	for i := 0; i < 2; i++ {
		op := o
		op.Shard = Shard{Index: i, Count: 2}
		c, err := newSession(t, op).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, c)
	}
	if len(got[0].Outcomes)+len(got[1].Outcomes) != len(full.Outcomes) {
		t.Fatalf("shards cover %d+%d of %d cells",
			len(got[0].Outcomes), len(got[1].Outcomes), len(full.Outcomes))
	}
	k := 0
	for _, c := range got {
		for i := range c.Outcomes {
			if c.Outcomes[i].Comparison != full.Outcomes[k].Comparison {
				t.Errorf("shard outcome %d diverges from full campaign", k)
			}
			k++
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
