package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/report"
)

// SeedStats aggregates a headline metric across seeds.
type SeedStats struct {
	Mean, Min, Max, StdDev float64
}

func newSeedStats(xs []float64) SeedStats {
	s := SeedStats{Min: math.Inf(1), Max: math.Inf(-1)}
	if len(xs) == 0 {
		return SeedStats{}
	}
	for _, x := range xs {
		s.Mean += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean /= float64(len(xs))
	for _, x := range xs {
		s.StdDev += (x - s.Mean) * (x - s.Mean)
	}
	s.StdDev = math.Sqrt(s.StdDev / float64(len(xs)))
	return s
}

// MultiSeedSummary holds the campaign headline metrics across seeds.
type MultiSeedSummary struct {
	Seeds           []uint64
	SpeedUp         SeedStats
	EnergyReduction SeedStats
	PowerReduction  SeedStats
	// Slowdowns counts slowdown configurations per seed.
	Slowdowns []int
}

// MultiSeed runs the full campaign once per seed and aggregates the
// headline metrics, quantifying how sensitive the results are to the
// workload randomness (the paper reports single runs; this is the
// reproduction's error bar). The per-seed campaigns execute as one
// combined cell set on the session's worker pool, so cells from
// different seeds run concurrently instead of seed-by-seed.
func (s *Session) MultiSeed(ctx context.Context, seeds []uint64) (*MultiSeedSummary, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("experiments: MultiSeed needs at least one seed")
	}
	// One flat cell list across every seed; starts[i] is where seed i's
	// campaign begins, so outcomes slice back into per-seed campaigns.
	var all []Cell
	starts := make([]int, len(seeds))
	perSeed := make([][]Cell, len(seeds))
	for i, seed := range seeds {
		opt := s.opts
		opt.Seed = seed
		cells, err := ShardCells(opt.Cells(), opt.Shard)
		if err != nil {
			return nil, fmt.Errorf("experiments: seed %d: %w", seed, err)
		}
		starts[i] = len(all)
		perSeed[i] = cells
		all = append(all, cells...)
	}
	outs, err := s.RunCells(ctx, all)
	if err != nil {
		return nil, fmt.Errorf("experiments: multi-seed campaign: %w", err)
	}
	ms := &MultiSeedSummary{Seeds: seeds}
	var speed, energy, powr []float64
	for i := range seeds {
		opt := s.opts
		opt.Seed = seeds[i]
		c := &Campaign{
			Options:  opt,
			Cells:    perSeed[i],
			Outcomes: outs[starts[i] : starts[i]+len(perSeed[i])],
		}
		sum := c.Summarize()
		speed = append(speed, sum.AvgSpeedUp)
		energy = append(energy, sum.AvgEnergyReduction)
		powr = append(powr, sum.AvgPowerReduction)
		ms.Slowdowns = append(ms.Slowdowns, sum.Slowdowns)
	}
	ms.SpeedUp = newSeedStats(speed)
	ms.EnergyReduction = newSeedStats(energy)
	ms.PowerReduction = newSeedStats(powr)
	return ms, nil
}

// Render formats the multi-seed summary.
func (ms *MultiSeedSummary) Render() string {
	t := report.Table{
		Title:   fmt.Sprintf("Headline metrics across %d seeds", len(ms.Seeds)),
		Headers: []string{"metric", "mean", "min", "max", "stddev"},
	}
	row := func(name string, s SeedStats, pct bool) {
		f := func(v float64) string {
			if pct {
				return fmt.Sprintf("%.1f%%", v*100)
			}
			return fmt.Sprintf("%.3f", v)
		}
		t.AddRow(name, f(s.Mean), f(s.Min), f(s.Max), f(s.StdDev))
	}
	row("avg speed-up", ms.SpeedUp, false)
	row("avg energy reduction", ms.EnergyReduction, true)
	row("avg power reduction", ms.PowerReduction, true)
	return t.Render()
}
