// Done-set equivalence harness. The paper's method is a paired run on one
// machine, and every extension of this simulator claims that machine's
// results as its own baseline: System reuse, the on-disk trace store, the
// banked bus, the degenerate point-to-point fabrics and journal
// re-pricing. This harness pins each claim byte for byte. The whole E2E
// done-set runs once as the reference campaign; every row re-runs it
// under one variant, and the row's CSV must match the reference's in
// every column except those naming the variant. A failure names the
// row, the first diverging done-set row and its cell.
package clockgate

import (
	"context"
	"encoding/csv"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// doneSetCells builds one run-cell per done case of the scenario matrix,
// every cell on the single bus: the interconnect rows re-home each cell
// onto their own shape, and the banked and topology blocks' cells join
// that differential like every other machine axis.
func doneSetCells(seed uint64) []Cell {
	var cells []Cell
	for _, s := range ScenarioMatrix() {
		if !s.Done() {
			continue
		}
		c := s.Cell(len(cells), seed)
		c.Banks = 0
		c.Topology = ""
		cells = append(cells, c)
	}
	return cells
}

// doneSetRow is one variant of the reference done-set campaign. Each row
// runs on a fresh session of its own.
type doneSetRow struct {
	name string
	// opts and cell edit the session options and every cell; nil keeps
	// the reference's.
	opts func(*CampaignOptions)
	cell func(*Cell)
	// columns name the CSV columns that carry the variant. They must
	// differ on every row, or the variant never took effect; every other
	// column must match.
	columns []string
	// want returns the CSV the row must reproduce; nil means the
	// reference campaign's.
	want func(t *testing.T) string
	// check makes the row's own assertions after its campaign ran.
	check func(t *testing.T, s *Session)
}

// TestDoneSetEquivalence runs the reference done-set campaign once and
// every equivalence row against it.
func TestDoneSetEquivalence(t *testing.T) {
	opts := DefaultCampaignOptions()
	opts.Scale = e2eScale
	opts.Workers = runtime.GOMAXPROCS(0)
	storeDir := t.TempDir()
	journal := filepath.Join(t.TempDir(), "journal.jsonl")

	// Only the reference campaign journals. Rows run on sessions without
	// a checkpoint; had one of them shared the journal, its records would
	// land beside the reference's and the reprice row would price both.
	ref := NewSession(opts)
	if err := ref.SetCheckpoint(journal); err != nil {
		t.Fatal(err)
	}
	refCells := doneSetCells(opts.Seed)
	refCSV := doneSetCSV(t, ref, refCells)
	refStats := ref.Stats()
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	rows := []doneSetRow{{
		name: "reuse off",
		opts: func(o *CampaignOptions) { o.NoSystemReuse = true },
		check: func(t *testing.T, s *Session) {
			if refStats.SystemReuses == 0 || s.Stats().SystemReuses != 0 {
				t.Errorf("System reuses: reference %d, reuse off %d; want some, then none",
					refStats.SystemReuses, s.Stats().SystemReuses)
			}
		},
	}, {
		name: "cold store",
		opts: func(o *CampaignOptions) { o.TraceDir = storeDir },
		check: func(t *testing.T, s *Session) {
			// Without published entries the warm row would silently
			// exercise the generation path again.
			if ents, _ := filepath.Glob(filepath.Join(storeDir, "*.cgt2")); len(ents) == 0 {
				t.Fatal("cold store published no trace-store entries")
			}
		},
	}, {
		name: "warm store",
		opts: func(o *CampaignOptions) { o.TraceDir = storeDir },
		check: func(t *testing.T, s *Session) {
			if n := s.Stats().TraceGenerations; n != 0 {
				t.Errorf("warm store generated %d traces, want every trace loaded from the store", n)
			}
		},
	}, {
		name:    "banks=1",
		cell:    func(c *Cell) { c.Banks = 1 },
		columns: []string{"banks"},
	}, {
		name:    "mesh:1x1",
		cell:    func(c *Cell) { c.Topology = "mesh:1x1" },
		columns: []string{"topology"},
	}, {
		name:    "ring:1",
		cell:    func(c *Cell) { c.Topology = "ring:1" },
		columns: []string{"topology"},
	}, {
		// The simulator never sees the technology point, so a fresh t45
		// campaign must price the reference's timings exactly as the
		// journal re-pricer does.
		name: "reprice t45",
		cell: func(c *Cell) { c.Tech = "t45" },
		want: func(t *testing.T) string {
			start := time.Now()
			repriced, err := Reprice(journal, "t45")
			elapsed := time.Since(start)
			if err != nil {
				t.Fatalf("reprice: %v", err)
			}
			// Re-pricing is checkpoint arithmetic, orders of magnitude
			// faster than simulating. The bound is generous; its job is to
			// catch an accidental re-simulation, which would blow past it.
			if elapsed > 2*time.Second {
				t.Errorf("re-pricing %d cells took %v; the journal path must not simulate",
					len(repriced.Outcomes), elapsed)
			}
			return campaignCSV(t, repriced)
		},
	}}

	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			o := opts
			if row.opts != nil {
				row.opts(&o)
			}
			cells := slices.Clone(refCells)
			if row.cell != nil {
				for i := range cells {
					row.cell(&cells[i])
				}
			}
			s := NewSession(o)
			defer s.Close()
			got := doneSetCSV(t, s, cells)
			if row.check != nil {
				row.check(t, s)
			}
			want := refCSV
			if row.want != nil {
				want = row.want(t)
			}
			diffDoneSetCSV(t, row.columns, refCells, cells, want, got)
		})
	}
}

// doneSetCSV runs cells on s and renders the campaign CSV.
func doneSetCSV(t *testing.T, s *Session, cells []Cell) string {
	t.Helper()
	outs, err := s.RunCells(context.Background(), cells)
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	return campaignCSV(t, &Campaign{Options: s.Options(), Cells: cells, Outcomes: outs})
}

func campaignCSV(t *testing.T, c *Campaign) string {
	t.Helper()
	var b strings.Builder
	if err := c.WriteCSV(&b); err != nil {
		t.Fatalf("CSV: %v", err)
	}
	return b.String()
}

// diffDoneSetCSV fails t at the first data row where got and want differ
// outside columns, or agree in one of columns. Data row r belongs to
// refCells[r-1] and cells[r-1]; when those two run on different
// interconnects, the report replays the cell on both for the first
// diverging cycle.
func diffDoneSetCSV(t *testing.T, columns []string, refCells, cells []Cell, want, got string) {
	t.Helper()
	parse := func(s string) [][]string {
		recs, err := csv.NewReader(strings.NewReader(s)).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	w, g := parse(want), parse(got)
	if len(w) != len(g) || !slices.Equal(w[0], g[0]) {
		t.Fatalf("CSV shapes diverge: %d rows, header %v; got %d rows, header %v", len(w), w[0], len(g), g[0])
	}
	axis := make([]bool, len(w[0]))
	for _, name := range columns {
		i := slices.Index(w[0], name)
		if i < 0 {
			t.Fatalf("no CSV column %q", name)
		}
		axis[i] = true
	}
	for r := 1; r < len(w); r++ {
		var bad []string
		for i, name := range w[0] {
			if (w[r][i] == g[r][i]) == axis[i] { // axis columns must differ, the rest match
				bad = append(bad, name)
			}
		}
		if len(bad) == 0 {
			continue
		}
		ref, c := refCells[r-1], cells[r-1]
		msg := fmt.Sprintf("first diverging done-set row %d (%s %s), columns %v:\n  want: %s\n  got:  %s",
			r, c.ID, c.Label(), bad, strings.Join(w[r], ","), strings.Join(g[r], ","))
		if c.Banks != ref.Banks || c.Topology != ref.Topology {
			msg += "\n  first diverging cycle: " + firstDivergingCycle(t, ref, c)
		}
		t.Error(msg)
		return
	}
}
