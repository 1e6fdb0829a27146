// Multi-tech journal re-pricing. The single-tech contract (re-pricing a
// journal under T is byte-identical to a fresh campaign under T, across
// the whole E2E done-set) is a row of the done-set equivalence harness
// (doneset_test.go); this file pins the shape of a multi-tech reprice.
package clockgate

import (
	"context"
	"path/filepath"
	"testing"
)

// TestRepriceMultiTechBlocks pins the tech-major output shape of a
// multi-tech reprice: every journal cell under techs[0] first, then
// techs[1], with each block byte-identical to a single-tech reprice.
func TestRepriceMultiTechBlocks(t *testing.T) {
	opts := DefaultCampaignOptions()
	opts.Scale = 0.02
	opts.Apps = []App{Intruder}
	opts.Processors = []int{4, 8}
	opts.Workers = 2

	session := NewSession(opts)
	defer session.Close()
	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := session.SetCheckpoint(journal); err != nil {
		t.Fatal(err)
	}
	if _, err := session.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	multi, err := Reprice(journal, "t65-srpg50", "t32")
	if err != nil {
		t.Fatal(err)
	}
	if len(multi.Outcomes) != 4 {
		t.Fatalf("2 cells x 2 techs should give 4 rows, got %d", len(multi.Outcomes))
	}
	for i, c := range multi.Cells {
		want := "t65-srpg50"
		if i >= 2 {
			want = "t32"
		}
		if c.Tech != want || c.Index != i {
			t.Errorf("row %d: tech %q index %d, want %q index %d", i, c.Tech, c.Index, want, i)
		}
	}
	single, err := Reprice(journal, "t32")
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range single.Outcomes {
		if o.Comparison != multi.Outcomes[2+i].Comparison {
			t.Errorf("t32 block row %d differs between single- and multi-tech reprice", i)
		}
	}
}
