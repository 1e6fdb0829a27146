package experiments

import (
	"context"
	"testing"
)

// BenchmarkCampaignTraceCache proves the session trace cache's win on the
// sweep the ROADMAP called out: Fig7's W0 axis re-uses one workload per
// (app, Np) point, so with the cache a 5-point W0 sweep provisions each
// trace once instead of five times. The benchmark measures trace
// provisioning only (no simulation, so the shared baselines play no
// part), on a fresh session per iteration — the within-one-sweep saving,
// not cross-iteration amortization. "uncached" sets NoTraceCache.
func BenchmarkCampaignTraceCache(b *testing.B) {
	o := Options{Seed: 42, Scale: 0.25, Processors: []int{8}}
	cells := fig7Cells(o) // 1 Np x 5 W0 x 3 apps = 15 cells, 3 unique workloads
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"cached", false}, {"uncached", true}} {
		b.Run(mode.name, func(b *testing.B) {
			opt := o
			opt.NoTraceCache = mode.disable
			for i := 0; i < b.N; i++ {
				s := NewSession(opt)
				entries := s.holdEntries(cells)
				for i, c := range cells {
					if _, err := s.trace(c, entries[i]); err != nil {
						b.Fatal(err)
					}
				}
				s.Close()
			}
			b.ReportMetric(float64(len(cells)), "cells")
		})
	}
}

// BenchmarkCampaignFig7Sweep measures the full Fig7 sweep end-to-end
// (simulation included) with and without the session's cross-cell
// caches, so their effect on real sweep wall-clock is tracked rather than
// asserted. "cached" provisions each (app, Np) trace once and runs each
// (app, Np) ungated baseline once for all five W0 points; "uncached"
// sets NoTraceCache, which turns both caches off and runs every cell's
// own baseline.
func BenchmarkCampaignFig7Sweep(b *testing.B) {
	o := Options{Seed: 42, Scale: 0.1, Processors: []int{8}, Workers: 1}
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"cached", false}, {"uncached", true}} {
		b.Run(mode.name, func(b *testing.B) {
			opt := o
			opt.NoTraceCache = mode.disable
			for i := 0; i < b.N; i++ {
				s := NewSession(opt)
				if _, err := s.Fig7(context.Background()); err != nil {
					b.Fatal(err)
				}
				s.Close()
			}
		})
	}
}
