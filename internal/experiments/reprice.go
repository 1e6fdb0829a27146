package experiments

import (
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/power"
)

// This file is the re-pricing engine: it streams a checkpoint or fleet
// journal — both are the same JSONL format (checkpoint.go), and the
// distributed coordinator's journal doubles as the -resume checkpoint —
// and re-emits the full campaign under one or many energy technology
// points without re-simulating anything. It works because a CellRecord
// carries the per-state residency totals both runs reduce to, energy is
// a pure function of those integers and the power model, and the
// technology axis never touches timing. Re-pricing a journal under tech
// T is therefore byte-identical to a fresh simulated run under T —
// pinned by the done-set golden in reprice_test.go — at checkpoint-
// arithmetic speed: a whole fleet journal re-prices in milliseconds.

// ReadJournal reads a checkpoint or fleet journal through
// journalScanner, which says what a journal line is and which lines
// count; a journal without a complete header line is an error. The
// header's campaign fingerprint is ignored: re-pricing reads any
// campaign's journal. Records are deduplicated by cell key, the last
// record winning as in checkpoint replay, and returned sorted by cell
// index, the campaign's canonical order. Errors call the journal
// "stream".
func ReadJournal(r io.Reader) ([]CellRecord, error) { return readJournal(r, "stream") }

// ReadJournalFile reads a journal from disk; see ReadJournal. Errors
// name the file.
func ReadJournalFile(path string) ([]CellRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("experiments: open journal: %w", err)
	}
	defer f.Close()
	return readJournal(f, path)
}

func readJournal(r io.Reader, name string) ([]CellRecord, error) {
	js := scanJournal(r, name)
	byKey := make(map[string]int)
	var recs []CellRecord
	for key, rec, ok := js.next(); ok; key, rec, ok = js.next() {
		if i, dup := byKey[key]; dup {
			recs[i] = rec
			continue
		}
		byKey[key] = len(recs)
		recs = append(recs, rec)
	}
	if _, _, err := js.end(); err != nil {
		return nil, err
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Cell.Index < recs[j].Cell.Index })
	return recs, nil
}

// Reprice re-prices journal records under the given technology points
// and returns them as one campaign: tech-major (every record under
// techs[0], then every record under techs[1], ...), records in their
// canonical order within each block. No simulation happens — each
// outcome's ledgers are restored from the recorded residency totals and
// the §IV comparison is recomputed under the tech's power model, which
// reproduces a fresh simulated run under that tech exactly. An empty
// tech list re-prices under the records' own recorded tech points
// (useful to regenerate a journal's CSV as-is).
func Reprice(records []CellRecord, techs []string) (*Campaign, error) {
	c := &Campaign{}
	if len(techs) == 0 {
		for _, rec := range records {
			out, err := repriceRecord(rec, rec.Cell.Tech)
			if err != nil {
				return nil, err
			}
			cell := rec.Cell
			cell.Index = len(c.Cells)
			c.Cells = append(c.Cells, cell)
			c.Outcomes = append(c.Outcomes, out)
		}
		return c, nil
	}
	for _, name := range techs {
		if _, err := energy.Resolve(name); err != nil {
			return nil, err
		}
		for _, rec := range records {
			out, err := repriceRecord(rec, name)
			if err != nil {
				return nil, err
			}
			cell := rec.Cell
			cell.Tech = name
			cell.Index = len(c.Cells)
			c.Cells = append(c.Cells, cell)
			c.Outcomes = append(c.Outcomes, out)
		}
	}
	return c, nil
}

// RepriceFile reads a journal from disk and re-prices it; the
// convenience form behind clockgate.Reprice and the CLI's -reprice.
func RepriceFile(path string, techs []string) (*Campaign, error) {
	recs, err := ReadJournalFile(path)
	if err != nil {
		return nil, err
	}
	return Reprice(recs, techs)
}

// repriceRecord rebuilds one outcome with its comparison recomputed
// under the named technology point. The restored ledgers reproduce the
// original runs' whole-run residency totals exactly, so every derived
// float is bit-identical to what a fresh simulation under that tech
// computes.
func repriceRecord(rec CellRecord, tech string) (*core.Outcome, error) {
	t, err := energy.Resolve(tech)
	if err != nil {
		return nil, err
	}
	out := rec.Outcome()
	out.Spec.Model = t.Model()
	out.Comparison = power.Compare(out.Spec.Model, out.Ungated.Ledger, out.Gated.Ledger)
	return out, nil
}
