// Package core is the high-level experiment runner: it ties workload
// generation, the simulated machine, and the power model into the
// paired-run methodology of the paper — the same trace executed once
// without and once with clock gating, compared by the §IV metrics.
package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/config"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stamp"
	"repro/internal/tcc"
	"repro/internal/trace"
	"repro/internal/workload"
)

// RunSpec names one experiment: a workload on a machine size.
type RunSpec struct {
	// App is the STAMP preset to run. Ignored if Trace is set.
	App stamp.App
	// Trace optionally supplies a pre-built workload (overrides App).
	Trace *workload.Trace
	// Processors is the core count (the paper uses 4, 8, 16).
	Processors int
	// W0 is the gating window constant (0 means the default, 8).
	W0 sim.Time
	// Seed drives workload generation.
	Seed uint64
	// Model is the power model; the zero value selects the paper's
	// Table I model.
	Model power.Model
	// Configure, if non-nil, edits the machine configuration before each
	// run (applied to both the gated and ungated run).
	Configure func(*config.Config)
}

func (rs RunSpec) model() power.Model {
	if rs.Model == (power.Model{}) {
		return power.Default()
	}
	return rs.Model
}

func (rs RunSpec) trace() (*workload.Trace, error) {
	if rs.Trace != nil {
		return rs.Trace, nil
	}
	return stamp.Generate(rs.App, rs.Processors, rs.Seed)
}

// Config is the machine configuration of one side of the pair: the
// paper's Table II machine at rs.Processors, gated at rs.W0 when gated is
// set, seeded with rs.Seed and edited by rs.Configure. The ungated side
// never reads W0, so specs that differ only in W0 (or in Model, which
// only prices) share one ungated configuration.
func (rs RunSpec) Config(gated bool) config.Config {
	cfg := config.Default(rs.Processors)
	if gated {
		cfg = cfg.WithGating(rs.W0)
	}
	cfg.Seed = rs.Seed
	if rs.Configure != nil {
		rs.Configure(&cfg)
	}
	return cfg
}

// Outcome is the result of one paired (ungated vs gated) experiment.
type Outcome struct {
	Spec       RunSpec
	Ungated    *tcc.Result
	Gated      *tcc.Result
	Comparison power.Comparison
}

// cancelHook converts a context into the periodic cancellation hook the
// simulator polls; background-like contexts install no hook at all, so
// the uncancellable path stays overhead-free.
func cancelHook(ctx context.Context) func() error {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	return func() error { return context.Cause(ctx) }
}

// SystemCache holds one constructed tcc.System for reuse across a stream
// of runs with the same machine shape. A cache belongs to exactly one
// worker goroutine — it is not safe for concurrent use — and caches the
// last shape it saw: a run on a matching shape resets the held System in
// place (allocation-free, bit-identical to fresh construction by the
// System.Reset contract); a shape change rebuilds and the new System takes
// the slot. The zero value is ready to use.
type SystemCache struct {
	sys *tcc.System
	// Reuses counts runs served by an in-place Reset of the held System.
	Reuses uint64
	// Rebuilds counts runs that constructed a fresh System (first use and
	// every shape change).
	Rebuilds uint64
}

// RunPair executes the spec twice on the identical trace — ungated
// baseline and gated — and compares them with the paper's energy model.
// The context is checked between phases and polled inside each
// simulation, so a canceled campaign stops mid-run instead of finishing
// the cell. With a cache, both runs of the pair (and every later pair of
// the same machine shape) execute on one reused System instead of
// constructing a fresh machine per run; a nil cache selects fresh
// construction. Results are byte-identical either way.
func RunPair(ctx context.Context, rs RunSpec, sc *SystemCache) (*Outcome, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tr, err := rs.trace()
	if err != nil {
		return nil, err
	}
	rs.Trace = tr // pin the trace so both runs share it exactly

	ungated, err := RunSide(ctx, rs, false, sc, nil)
	if err != nil {
		return Assemble(ctx, rs, nil, err, nil, nil)
	}
	gated, err := RunSide(ctx, rs, true, sc, nil)
	return Assemble(ctx, rs, ungated, nil, gated, err)
}

// Assemble builds a pair's Outcome from its two sides, however they were
// obtained: RunPair runs both, a campaign session may take the
// ungated side from another cell with the same baseline. A failed side
// turns into the pair's error, the ungated side's first; when ctx is done
// by then, the error is ctx.Err().
func Assemble(ctx context.Context, rs RunSpec, ungated *tcc.Result, ungatedErr error, gated *tcc.Result, gatedErr error) (*Outcome, error) {
	for _, side := range []struct {
		name string
		err  error
	}{{"ungated", ungatedErr}, {"gated", gatedErr}} {
		if side.err == nil {
			continue
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("core: %s run: %w", side.name, side.err)
	}
	return &Outcome{
		Spec:       rs,
		Ungated:    ungated,
		Gated:      gated,
		Comparison: power.Compare(rs.model(), ungated.Ledger, gated.Ledger),
	}, nil
}

// RunSide runs one side of rs's pair on rs.Trace (generated from rs.App
// when unset), on sc's System when its shape matches, with rec attached
// when non-nil. A nil cache selects fresh construction; results are
// byte-identical either way.
func RunSide(ctx context.Context, rs RunSpec, gated bool, sc *SystemCache, rec *trace.Recorder) (*tcc.Result, error) {
	tr, err := rs.trace()
	if err != nil {
		return nil, err
	}
	cfg := rs.Config(gated)
	var sys *tcc.System
	if sc != nil && sc.sys != nil {
		switch err := sc.sys.Reset(cfg, tr); {
		case err == nil:
			sc.Reuses++
			sys = sc.sys
		case !errors.Is(err, tcc.ErrShapeChange):
			// Invalid config or trace: fresh construction would fail the
			// same validation, so surface the error directly.
			return nil, err
		}
	}
	if sys == nil {
		if sys, err = tcc.NewSystem(cfg, tr); err != nil {
			return nil, err
		}
		if sc != nil {
			sc.sys = sys
			sc.Rebuilds++
		}
	}
	sys.SetRecorder(rec)
	sys.SetCancel(cancelHook(ctx))
	return sys.Run()
}
