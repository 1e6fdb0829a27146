// Timeline study: watch the gating protocol act on the machine.
//
// Runs a high-contention workload once with gating enabled, records every
// protocol event, and prints (a) an ASCII Gantt chart of per-processor
// power states — run / miss / commit / gated — folded from the recorded
// power-state events, and (b) the first protocol events around the first
// gating. The '.' bursts in the chart are
// processors parked by the directory after an abort; that parked time is
// billed at 0.20x run power by the Table I model.
//
//	go run ./examples/timeline
package main

import (
	"fmt"
	"log"

	clockgate "repro"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	spec := clockgate.WorkloadSpec{
		Name: "timeline-demo", TotalTxs: 256, MeanTxOps: 10, TxOpsJitter: 0.4,
		WriteFrac: 0.5, HotLines: 8, HotFrac: 0.8, ZipfSkew: 1.0,
		PrivateLines: 64, ComputeMean: 4, InterTxMean: 8, TxTypes: 2,
	}
	const procs = 8
	tr, err := spec.Generate(procs, 11)
	if err != nil {
		log.Fatal(err)
	}

	rec := clockgate.NewEventRecorder()
	res, err := clockgate.RunSingleWithEvents(clockgate.Experiment{
		Trace: tr, Processors: procs, Seed: 11,
	}, true, rec)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("gated run: %d cycles, %d commits, %d aborts, %d gatings, %d renewals\n\n",
		res.Cycles, res.Counters.Commits, res.Counters.Aborts,
		res.Counters.Gatings, res.Counters.Renewals)

	// Zoom the chart onto the window around the first gating so the
	// parked period is visible.
	var focus sim.Time
	for _, e := range rec.Events() {
		if e.Kind == clockgate.EvGate {
			focus = e.At
			break
		}
	}
	from := focus - 2000
	if from < 0 {
		from = 0
	}
	fmt.Print(report.Timeline{
		Segments: trace.Segments(rec.Events(), procs, res.Cycles),
		End:      res.Cycles,
		Width:    96,
		From:     from,
		To:       from + 8000,
	}.Render())

	fmt.Println("\nprotocol events around the first gating:")
	shown := 0
	for _, e := range rec.Events() {
		if e.Kind == clockgate.EvInvalidate || e.Kind == clockgate.EvTxBegin || e.Kind == clockgate.EvState {
			continue // too chatty for a demo
		}
		if e.At < focus {
			continue
		}
		fmt.Println(" ", e)
		shown++
		if shown >= 14 {
			break
		}
	}

	counts := rec.CountByKind()
	fmt.Println("\nevent totals:")
	fmt.Printf("  gate=%d renew=%d ungate=%d self-abort=%d commit=%d abort=%d\n",
		counts[clockgate.EvGate], counts[clockgate.EvRenew], counts[clockgate.EvUngate],
		counts[clockgate.EvSelfAbort], counts[clockgate.EvCommit], counts[clockgate.EvAbort])
}
