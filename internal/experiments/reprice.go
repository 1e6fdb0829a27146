package experiments

import (
	"bufio"
	"bytes"
	"encoding/json"
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

// MaxJournalLine bounds one journal line, and so one record: ReadJournal
// skips a longer line as corrupt, and the distributed coordinator bounds
// a return at one line per cell of a lease. No record comes near it:
// with 128 processors on the interconnect with the most links, the
// longest built-in names and every number at its widest, a record takes
// about 180 KB, and a real 128-processor mesh record about 80 KB.
const MaxJournalLine = 1 << 20

// ReadJournal parses a checkpoint/fleet journal stream: the header line
// is validated for version (the campaign fingerprint is deliberately
// ignored — re-pricing reads any campaign's journal), corrupt interior
// lines, lines longer than MaxJournalLine, records failing
// CellRecord.Validate and a torn final line are skipped exactly as a
// checkpoint resume would drop them (both decode lines with
// journalRecord, and no record is that long), records are deduplicated
// by cell key (last record wins, matching checkpoint replay), and the
// surviving records are returned sorted by cell index — the campaign's
// canonical order.
func ReadJournal(r io.Reader) ([]CellRecord, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), MaxJournalLine)
	var lines lineSplitter
	sc.Split(lines.split)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("experiments: journal read: %w", err)
		}
		return nil, fmt.Errorf("experiments: journal is empty")
	}
	if lines.skipped > 0 {
		return nil, fmt.Errorf("experiments: journal header corrupt: a line longer than %d bytes", MaxJournalLine)
	}
	var hdr checkpointHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("experiments: journal header corrupt: %w", err)
	}
	if hdr.Version != checkpointVersion {
		return nil, fmt.Errorf("experiments: journal version %d, want %d", hdr.Version, checkpointVersion)
	}
	byKey := make(map[string]int)
	var recs []CellRecord
	for sc.Scan() {
		key, rec, ok := journalRecord(sc.Bytes())
		if !ok {
			continue
		}
		if i, dup := byKey[key]; dup {
			recs[i] = rec
			continue
		}
		byKey[key] = len(recs)
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("experiments: journal read: %w", err)
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Cell.Index < recs[j].Cell.Index })
	return recs, nil
}

// lineSplitter is bufio.ScanLines for a scanner whose buffer is capped at
// MaxJournalLine, except that a line too long for the buffer is
// discarded through its newline instead of failing the scan. Lines that
// fit split exactly as ScanLines splits them, in place.
type lineSplitter struct {
	discarding bool
	skipped    int // lines discarded
}

func (l *lineSplitter) split(data []byte, atEOF bool) (int, []byte, error) {
	if l.discarding {
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			l.discarding = false
			return i + 1, nil, nil
		}
		return len(data), nil, nil
	}
	advance, token, err := bufio.ScanLines(data, atEOF)
	if advance == 0 && len(data) >= MaxJournalLine {
		// The buffer is full and holds no newline.
		l.discarding = true
		l.skipped++
		return len(data), nil, nil
	}
	return advance, token, err
}

// ReadJournalFile reads a journal from disk; see ReadJournal.
func ReadJournalFile(path string) ([]CellRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("experiments: open journal: %w", err)
	}
	defer f.Close()
	recs, err := ReadJournal(f)
	if err != nil {
		return nil, fmt.Errorf("experiments: journal %s: %w", path, err)
	}
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
