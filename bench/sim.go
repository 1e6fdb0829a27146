package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stamp"
	"repro/internal/stats"
	"repro/internal/tcc"
	wl "repro/internal/workload"
)

// paperGrid is the paper's Figure 4-7 grid at full scale: round r is
// {genome, yada, intruder} x {4, 8, 16}p x W0 {2, 8, 32} on the single
// bus, every cell with seed CellSeed(seed, r). The W0 axis shares one
// trace per (app, Np), so two cells in three hit the session's trace
// cache.
var paperGrid = &workload{
	name:         "paper-grid",
	clients:      2,
	roundOps:     27,
	goldenRounds: 8,
	setup: func(ctx context.Context, cfg runConfig, _ int) (instance, error) {
		return newSimInstance(ctx, cfg, simSpec{
			scale:      1.0,
			roundCells: 27,
			cellAt:     paperCell,
			warm:       []int{0, 1, 2},
			report:     true,
		})
	},
}

var paperW0 = []sim.Time{2, 8, 32}

func paperCell(seed uint64, i int) experiments.Cell {
	r, j := i/27, i%27
	return experiments.Cell{
		Index:      j,
		App:        stamp.PaperApps()[j/9],
		Processors: []int{4, 8, 16}[j/3%3],
		W0:         paperW0[j%3],
		Seed:       experiments.CellSeed(seed, r),
	}
}

// nocFabric runs wide machines on every interconnect: round r is
// {genome, intruder, vacation} x {64, 128}p x {ring, mesh, xbar, banks=4,
// bus} at scale 0.02 with seed CellSeed(seed, r). At these widths the
// scale floors every thread at one transaction. Yada is left out like
// labyrinth and bayes: its 128p ring cell alone takes 5 s, 40% of a
// round, so a run would measure a handful of samples of one cell. The
// slow fabrics come first in a round so a round's tail is made of short
// cells.
var nocFabric = &workload{
	name:         "noc-fabric",
	clients:      2,
	roundOps:     30,
	goldenRounds: 4,
	setup: func(ctx context.Context, cfg runConfig, _ int) (instance, error) {
		return newSimInstance(ctx, cfg, simSpec{
			scale:      0.02,
			roundCells: 30,
			cellAt:     nocCell,
			warm:       []int{24, 25, 26, 27, 28, 29},
		})
	},
}

var nocApps = []stamp.App{stamp.Genome, stamp.Intruder, stamp.Vacation}

// nocShapes are the interconnects, slowest first: a topology name, or a
// bank count for the banked bus.
var nocShapes = []struct {
	topology string
	banks    int
}{{"ring", 0}, {"mesh", 0}, {"xbar", 0}, {"", 4}, {"", 0}}

func nocCell(seed uint64, i int) experiments.Cell {
	r, j := i/30, i%30
	shape := nocShapes[j/6]
	return experiments.Cell{
		Index:      j,
		App:        nocApps[j%3],
		Processors: []int{128, 64}[j/3%2],
		Banks:      shape.banks,
		Topology:   shape.topology,
		Seed:       experiments.CellSeed(seed, r),
	}
}

// simSpec describes a workload whose operation is one paired cell.
type simSpec struct {
	scale      float64
	roundCells int
	cellAt     func(seed uint64, i int) experiments.Cell
	// warm are the positions, in a round no timed phase reaches, of the
	// cells set-up runs to warm the session.
	warm []int
	// report prints the W0=8 averages beside the paper's headline.
	report bool
}

// warmRound is a round index far beyond any timed phase.
const warmRound = 1 << 30

type simInstance struct {
	simSpec
	seed   uint64
	toy    bool
	sess   *experiments.Session
	header []byte

	// The traced path's own trace cache and one reused machine per client.
	traces  traceCache
	systems []*tcc.System

	mu   sync.Mutex
	w0s8 []*core.Outcome // comparisons of the untraced W0=8 cells
}

func newSimInstance(ctx context.Context, cfg runConfig, spec simSpec) (*simInstance, error) {
	spec.scale *= cfg.scale()
	s := &simInstance{
		simSpec: spec,
		seed:    cfg.seed,
		toy:     cfg.toy,
		sess:    experiments.NewSession(experiments.Options{Seed: cfg.seed, Scale: spec.scale, Workers: 2}),
		systems: make([]*tcc.System, 2),
	}
	var hdr bytes.Buffer
	if err := (&experiments.Campaign{}).WriteCSV(&hdr); err != nil {
		return nil, err
	}
	s.header = hdr.Bytes()
	var warm []experiments.Cell
	for _, j := range spec.warm {
		warm = append(warm, s.cell(warmRound*spec.roundCells+j))
	}
	if _, err := s.sess.RunCells(ctx, warm); err != nil {
		s.sess.Close()
		return nil, err
	}
	return s, nil
}

// cell is operation i's cell.
func (s *simInstance) cell(i int) experiments.Cell {
	c := s.cellAt(s.seed, i)
	if s.toy {
		c.Processors = min(c.Processors, toyProcs)
	}
	return c
}

func (s *simInstance) cellsPerOp() int { return 1 }

func (s *simInstance) close() error { return s.sess.Close() }

func (s *simInstance) op(ctx context.Context, tr *tracer, client, i int) ([]byte, error) {
	c := s.cell(i)
	if tr != nil {
		return s.tracedOp(tr, client, i, c)
	}
	outs, err := s.sess.RunCells(ctx, []experiments.Cell{c})
	if err != nil {
		return nil, err
	}
	o := outs[0]
	if err := checkOutcome(c, o, s.scale); err != nil {
		return nil, err
	}
	if s.report && c.W0 == 8 {
		s.mu.Lock()
		s.w0s8 = append(s.w0s8, &core.Outcome{Comparison: o.Comparison})
		s.mu.Unlock()
	}
	return s.render(i, c, o)
}

// render is the cell's CSV row, preceded by the header when the cell
// opens a round, so a round's outputs concatenate to its campaign CSV.
func (s *simInstance) render(i int, c experiments.Cell, o *core.Outcome) ([]byte, error) {
	var buf bytes.Buffer
	if i%s.roundCells == 0 {
		buf.Write(s.header)
	}
	camp := &experiments.Campaign{Cells: []experiments.Cell{c}, Outcomes: []*core.Outcome{o}}
	if err := camp.AppendCSV(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// tracedOp rebuilds the cell from the layer calls a Session makes: the
// trace from ScaledSpec and Generate (cached per app, width and seed),
// the machine from NewSystem or Reset, the ungated and gated runs, and
// the pricing.
func (s *simInstance) tracedOp(tr *tracer, client, i int, c experiments.Cell) ([]byte, error) {
	op := tr.begin("op", i)
	defer op.end()
	trace, err := s.traces.get(op, c, s.scale)
	if err != nil {
		return nil, err
	}
	tech, err := energy.Resolve(c.Tech)
	if err != nil {
		return nil, err
	}
	var runs [2]*tcc.Result
	for k, gated := range []bool{false, true} {
		if runs[k], err = s.simulate(tr, op, client, machineConfig(c, gated), trace); err != nil {
			return nil, err
		}
	}
	sp := op.child("power.compare")
	cmp := power.Compare(tech.Model(), runs[0].Ledger, runs[1].Ledger)
	sp.end()
	o := &core.Outcome{
		Spec:       core.RunSpec{App: c.App, Trace: trace, Processors: c.Processors, W0: c.W0, Seed: c.Seed, Model: tech.Model()},
		Ungated:    runs[0],
		Gated:      runs[1],
		Comparison: cmp,
	}
	if err := checkOutcome(c, o, s.scale); err != nil {
		return nil, err
	}
	if i < s.roundCells {
		tr.countModel(o)
	}
	sp = op.child("experiments.render")
	defer sp.end()
	return s.render(i, c, o)
}

// simulate runs one configuration on the client's machine, resetting it
// in place when the shape matches and building a new one otherwise.
func (s *simInstance) simulate(tr *tracer, op *span, client int, cfg config.Config, trace *wl.Trace) (*tcc.Result, error) {
	sys := s.systems[client]
	if sys != nil {
		sp := op.child("tcc.reset")
		err := sys.Reset(cfg, trace)
		switch {
		case err == nil:
			sp.end()
		case errors.Is(err, tcc.ErrShapeChange):
			sys = nil
		default:
			return nil, err
		}
	}
	if sys == nil {
		sp := op.child("tcc.build")
		var err error
		if sys, err = tcc.NewSystem(cfg, trace); err != nil {
			return nil, err
		}
		sp.end()
		s.systems[client] = sys
	}
	sp := op.child("tcc.run")
	res, err := sys.Run()
	if err != nil {
		return nil, err
	}
	sp.end()
	tr.countRun(sys.Engine().Fired(), res)
	return res, nil
}

// machineConfig is the machine a cell runs on, built as the session
// builds it.
func machineConfig(c experiments.Cell, gated bool) config.Config {
	cfg := config.Default(c.Processors)
	if gated {
		cfg = cfg.WithGating(c.W0)
	}
	cfg.Seed = c.Seed
	if c.Banks > 0 {
		cfg.Machine.Banks = c.Banks
	}
	if c.Topology != "" {
		cfg.Machine.Topology = c.Topology
	}
	return cfg
}

// traceCache holds generated traces by (app, width, seed), evicting the
// oldest past the session cache's 64 entries. The workloads never revisit
// an evicted key, so its hits match the session's.
type traceCache struct {
	mu      sync.Mutex
	entries map[traceKey]*traceEntry
	order   []traceKey
}

type traceKey struct {
	app   stamp.App
	procs int
	seed  uint64
}

type traceEntry struct {
	once sync.Once
	tr   *wl.Trace
	err  error
}

func (tc *traceCache) get(op *span, c experiments.Cell, scale float64) (*wl.Trace, error) {
	key := traceKey{c.App, c.Processors, c.Seed}
	tc.mu.Lock()
	if tc.entries == nil {
		tc.entries = map[traceKey]*traceEntry{}
	}
	e, ok := tc.entries[key]
	if !ok {
		e = &traceEntry{}
		tc.entries[key] = e
		tc.order = append(tc.order, key)
		if len(tc.order) > 64 {
			delete(tc.entries, tc.order[0])
			tc.order = tc.order[1:]
		}
	}
	tc.mu.Unlock()
	e.once.Do(func() {
		sp := op.child("workload.gen")
		defer sp.end()
		spec, err := experiments.ScaledSpec(c.App, c.Processors, scale)
		if err != nil {
			e.err = err
			return
		}
		e.tr, e.err = spec.Generate(c.Processors, c.Seed)
	})
	return e.tr, e.err
}

// verify re-runs the first cells of round 0 on a fresh session with the
// trace cache and machine reuse turned off, and compares their rows.
func (s *simInstance) verify(ctx context.Context, round0 [][]byte) error {
	sess := experiments.NewSession(experiments.Options{Seed: s.seed, Scale: s.scale, Workers: 1, NoTraceCache: true, NoSystemReuse: true})
	defer sess.Close()
	for j := 0; j < min(3, len(round0)); j++ {
		c := s.cell(j)
		outs, err := sess.RunCells(ctx, []experiments.Cell{c})
		if err != nil {
			return err
		}
		row, err := s.render(j, c, outs[0])
		if err != nil {
			return err
		}
		if !bytes.Equal(row, round0[j]) {
			return fmt.Errorf("%s: a fresh machine and trace give a different row", c.Label())
		}
	}
	return nil
}

func (s *simInstance) describe(rep *report) {
	rep.cond.Settings["scale"] = strconv.FormatFloat(s.scale, 'g', -1, 64)
	rep.cond.Settings["session_workers"] = "2"
	if !s.report || len(s.w0s8) == 0 {
		return
	}
	sum := (&experiments.Campaign{Outcomes: s.w0s8}).Summarize()
	rep.note("paper-grid at W0=8 over %d cells: energy reduction %.1f%% (paper 19%%), speed-up %+.1f%% (paper +4%%), power reduction %.1f%% (paper 13%%); beyond this comparison the simulated model is unvalidated",
		len(s.w0s8), 100*sum.AvgEnergyReduction, 100*(sum.AvgSpeedUp-1), 100*sum.AvgPowerReduction)
}

// checkOutcome checks one paired cell against properties that hold for
// any seed: every transaction commits exactly once in both runs, each
// run's residency ledger partitions its cycles on every processor, the
// ungated run never gates, the gating counters are consistent, and the
// comparison is computed from these runs.
func checkOutcome(c experiments.Cell, o *core.Outcome, scale float64) error {
	spec, err := experiments.ScaledSpec(c.App, c.Processors, scale)
	if err != nil {
		return err
	}
	txs := uint64(max(spec.TotalTxs/c.Processors, 1) * c.Processors)
	for _, r := range []*tcc.Result{o.Ungated, o.Gated} {
		k := r.Counters
		switch {
		case k.Commits != txs:
			return fmt.Errorf("%s: %d commits, want %d", c.Label(), k.Commits, txs)
		case r.Cycles <= 0 || r.Ledger.End() != r.Cycles:
			return fmt.Errorf("%s: ledger ends at %d, run at %d", c.Label(), r.Ledger.End(), r.Cycles)
		case k.Gatings == 0 && k.Renewals != 0:
			return fmt.Errorf("%s: %d renewals without a gating", c.Label(), k.Renewals)
		case k.SelfAborts > k.Ungates:
			return fmt.Errorf("%s: %d self-aborts after %d ungates", c.Label(), k.SelfAborts, k.Ungates)
		}
		for p, per := range r.Ledger.ResidencyTotals() {
			var sum sim.Time
			for st := 0; st < stats.NumStates; st++ {
				sum += per[st]
			}
			if sum != r.Cycles {
				return fmt.Errorf("%s: processor %d residency %d, run %d cycles", c.Label(), p, sum, r.Cycles)
			}
		}
	}
	cmp := o.Comparison
	switch {
	case o.Ungated.Counters.Gatings != 0:
		return fmt.Errorf("%s: the ungated run gated %d times", c.Label(), o.Ungated.Counters.Gatings)
	case cmp.N1 != o.Ungated.Cycles || cmp.N2 != o.Gated.Cycles:
		return fmt.Errorf("%s: comparison of %d/%d cycles, runs took %d/%d", c.Label(), cmp.N1, cmp.N2, o.Ungated.Cycles, o.Gated.Cycles)
	case !(cmp.Eug > 0 && cmp.Eg > 0) || math.IsInf(cmp.Eug, 0) || math.IsInf(cmp.Eg, 0):
		return fmt.Errorf("%s: energies %g/%g", c.Label(), cmp.Eug, cmp.Eg)
	}
	return nil
}
