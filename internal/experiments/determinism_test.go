package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/stamp"
)

// These tests pin the engine's central guarantee: for the same Options,
// sequential and parallel campaigns — and a streamed campaign reordered
// into canonical order — produce byte-identical reports and CSV.

func campaignCSV(t *testing.T, o Options) string {
	t.Helper()
	c, err := newSession(t, o).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := c.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func campaignReports(t *testing.T, o Options) string {
	t.Helper()
	c, err := newSession(t, o).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return c.Fig4() + c.Fig5() + c.Fig6() + c.DetailTable() + c.SummaryText()
}

func TestParallelCampaignByteIdenticalToSequential(t *testing.T) {
	o := quickOptions()
	o.Workers = 1
	seqCSV := campaignCSV(t, o)
	seqRep := campaignReports(t, o)
	for _, workers := range []int{2, 4, 16} {
		o.Workers = workers
		if got := campaignCSV(t, o); got != seqCSV {
			t.Fatalf("workers=%d: CSV diverged from sequential:\n--- seq ---\n%s\n--- par ---\n%s",
				workers, seqCSV, got)
		}
		if got := campaignReports(t, o); got != seqRep {
			t.Fatalf("workers=%d: rendered reports diverged from sequential", workers)
		}
	}
}

// TestStreamReorderedByteIdenticalToBatch pins the streaming API to the
// batch one: collecting Session.Stream's completion-order results and
// reordering them by Pos must reproduce Run's canonical-order campaign —
// and with it byte-identical reports and CSV — for any worker count.
func TestStreamReorderedByteIdenticalToBatch(t *testing.T) {
	o := quickOptions()
	o.Workers = 1
	batchCSV := campaignCSV(t, o)
	batchRep := campaignReports(t, o)

	for _, workers := range []int{1, 4, 16} {
		op := o
		op.Workers = workers
		s := NewSession(op)
		cells := op.Cells()
		outs := make([]*CellResult, len(cells))
		for res, err := range s.Stream(context.Background(), cells) {
			if err != nil {
				t.Fatal(err)
			}
			res := res
			outs[res.Pos] = &res
		}
		campaign := &Campaign{Options: op, Cells: cells}
		for _, r := range outs {
			if r == nil {
				t.Fatal("stream dropped a cell")
			}
			campaign.Outcomes = append(campaign.Outcomes, r.Outcome)
		}
		var b strings.Builder
		if err := campaign.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		if b.String() != batchCSV {
			t.Fatalf("workers=%d: reordered stream CSV diverged from batch:\n--- batch ---\n%s\n--- stream ---\n%s",
				workers, batchCSV, b.String())
		}
		rep := campaign.Fig4() + campaign.Fig5() + campaign.Fig6() + campaign.DetailTable() + campaign.SummaryText()
		if rep != batchRep {
			t.Fatalf("workers=%d: reordered stream reports diverged from batch", workers)
		}
		s.Close()
	}
}

func TestCampaignStableAcrossInvocations(t *testing.T) {
	o := quickOptions()
	o.Workers = 4
	first := campaignCSV(t, o)
	second := campaignCSV(t, o)
	if first != second {
		t.Fatalf("same options, different output:\n--- 1st ---\n%s\n--- 2nd ---\n%s", first, second)
	}
}

func TestScenarioCampaignDeterministic(t *testing.T) {
	o := Options{Seed: 42, Scale: 0.02}
	scenarios := DoneScenarios()[:6]
	render := func(workers int) string {
		op := o
		op.Workers = workers
		c, err := newSession(t, op).RunScenarios(context.Background(), scenarios)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := c.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		return b.String() + c.DetailTable()
	}
	seq := render(1)
	if par := render(8); par != seq {
		t.Fatalf("scenario campaign diverged:\n--- seq ---\n%s\n--- par ---\n%s", seq, par)
	}
}

// TestSharedBaselineByteIdentical pins the shared baselines to the
// cache-off path on the sweeps whose cells share ungated baselines: Fig 7
// (siblings a W0 step apart, len(apps) cells away), the paper grid's W0
// axis (siblings adjacent), and one trace crossed with machine and
// energy axes (only some cells may share). With the cache on, CSV and
// rendered reports must be byte-identical to NoTraceCache's at one and
// four workers, for one batch call and for one cell per call from four
// clients.
func TestSharedBaselineByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cells func(Options) []Cell
	}{
		{"fig7", fig7Cells},
		{"paper-grid W0", func(o Options) []Cell { return paperGridRound(o.Seed) }},
		{"machine and energy axes", func(o Options) []Cell { return axesCells(o.Seed, stamp.Genome, stamp.Intruder) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want string
			for _, run := range []struct {
				cacheOff bool
				workers  int
				clients  int // one cell per call from this many clients; 0 is one batch call
			}{{true, 1, 0}, {true, 4, 0}, {false, 1, 0}, {false, 4, 0}, {false, 4, 4}} {
				o := Options{Seed: 42, Scale: 0.02, Workers: run.workers, NoTraceCache: run.cacheOff}
				s := NewSession(o)
				cells := tc.cells(o)
				var outs []*core.Outcome
				if run.clients > 0 {
					outs = runEachCell(t, s, cells, run.clients)
				} else {
					var err error
					if outs, err = s.RunCells(context.Background(), cells); err != nil {
						t.Fatal(err)
					}
				}
				s.Close()
				c := &Campaign{Options: o, Cells: cells, Outcomes: outs}
				var b strings.Builder
				if err := c.WriteCSV(&b); err != nil {
					t.Fatal(err)
				}
				got := b.String() + c.Fig4() + c.Fig5() + c.Fig6() + c.DetailTable() + c.SummaryText()
				if tc.name == "fig7" {
					got += fig7Report(o, outs)
				}
				if want == "" {
					want = got
				} else if got != want {
					t.Fatalf("%+v: output diverged from the cache-off run:\n--- cache off ---\n%s\n--- got ---\n%s",
						run, want, got)
				}
			}
		})
	}
}
