// Streaming: run a campaign on a Session and consume per-cell results as
// they complete, then show the engine's central guarantee — reordering
// the stream into canonical order reproduces the batch campaign
// byte-for-byte.
//
// A Session is the engine every sweep runs on: it owns the worker pool,
// a workload-trace cache shared across cells, and (not shown here; see
// `cmd/experiments -resume`) an optional JSONL checkpoint sink that
// makes interrupted campaigns restartable. The context passed to Stream
// cancels promptly: the simulators poll it inside a run, not just
// between cells.
//
//	go run ./examples/streaming
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"strings"
	"time"

	clockgate "repro"
)

func main() {
	opts := clockgate.DefaultCampaignOptions()
	opts.Scale = 0.25 // quick quarter-size campaign
	opts.Workers = runtime.GOMAXPROCS(0)

	session := clockgate.NewSession(opts)
	defer session.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	cells := opts.Cells()
	fmt.Printf("streaming %d cells across %d workers\n\n", len(cells), opts.Workers)

	// Results arrive in completion order; Pos remembers canonical order.
	outcomes := make([]*clockgate.Outcome, len(cells))
	start := time.Now()
	for res, err := range session.Stream(ctx, cells) {
		if err != nil {
			log.Fatal(err)
		}
		outcomes[res.Pos] = res.Outcome
		fmt.Printf("  [%5.2fs] %-14s speed-up %.3f  energy reduction %.3fx\n",
			time.Since(start).Seconds(), res.Cell.Label(),
			res.Outcome.Comparison.SpeedUp, res.Outcome.Comparison.EnergyRatio)
	}

	// Reordered by Pos, the stream is the batch campaign: same cells,
	// same outcomes, byte-identical CSV and reports.
	streamed := &clockgate.Campaign{Options: opts, Cells: cells, Outcomes: outcomes}
	batch, err := session.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	var a, b strings.Builder
	if err := streamed.WriteCSV(&a); err != nil {
		log.Fatal(err)
	}
	if err := batch.WriteCSV(&b); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreordered stream == batch campaign: %v\n", a.String() == b.String())
	if a.String() != b.String() {
		log.Fatal("the reordered stream's CSV differs from the batch campaign's")
	}
	fmt.Println()
	fmt.Println(batch.SummaryText())
}
