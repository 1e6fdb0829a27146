package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/power"
)

// repriceJournal prices a checkpoint journal with no simulation at all.
// Set-up simulates the scenario matrix's done set at scale 0.02 into a
// journal; each operation then reads the journal, re-prices every cell
// under the three non-default technology points and renders the CSV.
var repriceJournal = &workload{
	name:         "reprice-journal",
	clients:      1,
	roundOps:     1,
	goldenRounds: 1,
	setup: func(ctx context.Context, cfg runConfig, rep int) (instance, error) {
		o := experiments.Options{Seed: cfg.seed, Scale: 0.02 * cfg.scale(), Workers: 2}
		r := &repriceInstance{scale: o.Scale, journal: filepath.Join(cfg.dir, fmt.Sprintf("journal-%d.jsonl", rep))}
		sess := experiments.NewSession(o)
		if err := sess.SetCheckpoint(r.journal); err != nil {
			return nil, err
		}
		cells := o.ScenarioCells(experiments.DoneScenarios())
		if cfg.toy {
			cells = slices.DeleteFunc(cells, func(c experiments.Cell) bool { return c.Processors > toyProcs })
		}
		outs, err := sess.RunCells(ctx, cells)
		if cerr := sess.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		for k, out := range outs {
			if err := checkOutcome(cells[k], out, o.Scale); err != nil {
				return nil, err
			}
		}
		var buf bytes.Buffer
		if err := (&experiments.Campaign{Options: o, Cells: cells, Outcomes: outs}).WriteCSV(&buf); err != nil {
			return nil, err
		}
		r.fresh = buf.Bytes()
		r.cells = len(cells) * len(experiments.MatrixTechPoints)
		// Warm up the decoder and the first operation's digest.
		if _, err := r.op(ctx, nil, 0, 0); err != nil {
			return nil, err
		}
		return r, nil
	},
}

type repriceInstance struct {
	scale   float64
	journal string
	fresh   []byte // the CSV of the campaign that wrote the journal
	cells   int
	first   string // digest every operation must reproduce
}

func (r *repriceInstance) cellsPerOp() int { return r.cells }

func (r *repriceInstance) close() error { return os.Remove(r.journal) }

func (r *repriceInstance) op(ctx context.Context, tr *tracer, _ int, i int) ([]byte, error) {
	var out []byte
	var err error
	if tr != nil {
		out, err = r.tracedOp(tr, i)
	} else {
		out, err = r.reprice()
	}
	if err != nil {
		return nil, err
	}
	switch d := digest(out); {
	case r.first == "":
		r.first = d
	case d != r.first:
		return nil, fmt.Errorf("re-pricing the same journal gave a different CSV")
	}
	return out, nil
}

func (r *repriceInstance) reprice() ([]byte, error) {
	recs, err := experiments.ReadJournalFile(r.journal)
	if err != nil {
		return nil, err
	}
	camp, err := experiments.Reprice(recs, experiments.MatrixTechPoints)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := camp.WriteCSV(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// tracedOp rebuilds Reprice from its public parts: each record's outcome
// is restored and its comparison recomputed with power.Compare under each
// technology point. power.Compare calls are timed one by one rather than
// as spans, which would number over a hundred thousand a phase.
func (r *repriceInstance) tracedOp(tr *tracer, i int) ([]byte, error) {
	op := tr.begin("op", i)
	defer op.end()
	sp := op.child("experiments.journal_read")
	recs, err := experiments.ReadJournalFile(r.journal)
	if err != nil {
		return nil, err
	}
	sp.end()

	sp = op.child("experiments.reprice")
	camp := &experiments.Campaign{}
	var compare []time.Duration
	for _, name := range experiments.MatrixTechPoints {
		tech, err := energy.Resolve(name)
		if err != nil {
			return nil, err
		}
		model := tech.Model()
		for _, rec := range recs {
			out := rec.Outcome()
			out.Spec.Model = model
			t := time.Now()
			out.Comparison = power.Compare(model, out.Ungated.Ledger, out.Gated.Ledger)
			compare = append(compare, time.Since(t))
			cell := rec.Cell
			cell.Tech = name
			cell.Index = len(camp.Cells)
			camp.Cells = append(camp.Cells, cell)
			camp.Outcomes = append(camp.Outcomes, out)
		}
	}
	sp.end()
	tr.count(func(c *layerCounts) { c.compare = append(c.compare, compare...) })
	if i == 0 {
		for _, o := range camp.Outcomes {
			tr.countModel(o)
		}
	}

	sp = op.child("experiments.render")
	defer sp.end()
	var buf bytes.Buffer
	if err := camp.WriteCSV(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// verify re-prices the journal under the cells' own technology points,
// which must reproduce the simulated campaign's CSV byte for byte.
func (r *repriceInstance) verify(context.Context, [][]byte) error {
	camp, err := experiments.RepriceFile(r.journal, nil)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := camp.WriteCSV(&buf); err != nil {
		return err
	}
	if !bytes.Equal(buf.Bytes(), r.fresh) {
		return fmt.Errorf("re-pricing the journal as recorded differs from the simulated campaign")
	}
	return nil
}

func (r *repriceInstance) describe(rep *report) {
	rep.cond.Settings["journal_scale"] = strconv.FormatFloat(r.scale, 'g', -1, 64)
	rep.cond.Settings["techs"] = fmt.Sprint(experiments.MatrixTechPoints)
}
