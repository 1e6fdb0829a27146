// Package clockgate is a simulator-backed reproduction of "Clock Gate on
// Abort: Towards Energy-Efficient Hardware Transactional Memory" (Sanyal,
// Roy, Cristal, Unsal, Valero — IPDPS 2009).
//
// The paper proposes clock-gating a processor whenever its transaction is
// aborted in a Scalable-TCC hardware transactional memory, with a
// directory-resident table deciding when to un-gate or renew the gating
// period, and a gating-aware contention-management policy
//
//	Wt = W0 * (2^ceil(lg Na) + 2^ceil(lg Nr))
//
// sizing the window from the per-directory abort (Na) and renew (Nr)
// counters. This package is the stable public API over the full machine
// model in internal/: discrete-event engine, L1 caches with speculative
// RW bits, split-transaction bus, TID vendor, directories with the gating
// table, the Alpha-21264-in-65nm power model, and synthetic STAMP
// workload generators.
//
// The one-call entry point mirrors the paper's methodology — the same
// workload trace is executed with and without the mechanism and compared
// with the §IV energy model:
//
//	out, err := clockgate.Run(clockgate.Experiment{
//		App:        clockgate.Intruder,
//		Processors: 16,
//		Seed:       42,
//	})
//	fmt.Println(out.SpeedUp(), out.EnergyReductionFactor())
//
// # Sessions
//
// Every sweep above a single experiment runs on a Session: a long-lived
// campaign engine that owns a worker pool, one cross-cell cache (per
// workload trace, the trace and the ungated baselines that cells
// differing only in W0 or technology point share) and an optional JSONL
// checkpoint sink. A campaign is split into independent
// run-cells (paired gated/ungated simulations); the session executes
// them across its pool and either streams results as they complete or
// merges them in canonical cell order:
//
//	opts := clockgate.DefaultCampaignOptions()
//	opts.Workers = runtime.GOMAXPROCS(0)
//	session := clockgate.NewSession(opts)
//	defer session.Close()
//
//	// Streaming: per-cell results in completion order, cancellable.
//	for res, err := range session.Stream(ctx, opts.Cells()) {
//		if err != nil { ... }
//		fmt.Println(res.Cell.Label(), res.Outcome.Comparison.SpeedUp)
//	}
//
//	// Batch: canonical order, byte-identical for every worker count —
//	// and byte-identical to the stream reordered by CellResult.Pos.
//	campaign, err := session.Run(ctx)
//	fmt.Println(campaign.SummaryText())
//
// Session.SetCheckpoint persists each completed cell as one JSON line;
// re-running an interrupted campaign with the same options and
// checkpoint file restarts at the first incomplete cell and produces
// byte-identical output (the CLI exposes this as `-resume`). Contexts
// cancel promptly: the simulator polls the context inside a run, not
// just between cells.
//
// The scenario matrix, the W0 sensitivity sweep (Figure 7), the
// multi-seed error bars and the ablation suite are all cell providers on
// the same engine — Session.RunScenarios, Session.Fig7,
// Session.MultiSeed, Session.Ablations — so they share the pool, the
// cache and the checkpoint machinery.
//
// # Distributed campaigns
//
// Serve and Work scale a session past one machine: a coordinator owns
// the campaign's canonical cell list and leases batches of cells over
// HTTP+JSON to any number of workers, each running the cells on a local
// Session. Results merge by canonical cell position, so the final
// campaign is byte-identical to a single-process Session.Run — with
// worker crashes healed by lease deadlines and duplicate returns
// discarded per cell (first result wins):
//
//	// coordinator (one process)
//	campaign, err := clockgate.Serve(ctx, ":7400", opts, clockgate.ServeConfig{})
//
//	// workers (any number of processes, any machines)
//	stats, err := clockgate.Work(ctx, "coordinator:7400", clockgate.WorkerConfig{})
//
// The fleet is elastic: live workers heartbeat their leases so a cell
// slower than the TTL is never re-run, a dead worker's cells are
// reclaimed once its lease deadline passes (every request and status
// read reclaims expired leases first), stragglers near the end of a
// campaign can be re-leased to idle workers
// (ServeConfig.StealThreshold), and workers ride out transient
// coordinator outages with bounded retries. A
// running coordinator is observable via FetchFleetStatus (GET
// /v1/status) and a Prometheus-style GET /metrics.
//
// The coordinator journals completed cells in the -resume checkpoint
// format (ServeConfig.CheckpointPath), so an interrupted fleet job
// restarts at the first incomplete cell — or finishes locally with
// `cmd/experiments -resume`. The CLI exposes the roles as
// `experiments -serve addr`, `experiments -worker addr` and
// `experiments -status addr`;
// docs/DISTRIBUTED.md specifies the protocol (lease state machine,
// renewal and stealing rules, dedup-on-re-lease, merge ordering).
//
// # Scenario matrix
//
// Beyond the paper's grid, the scenario matrix names every runnable case
// — each STAMP preset at 1–128 processors, several gating windows,
// contention levels and interconnect shapes — as addressable case IDs
// (see docs/E2E.md). Case IDs are append-only: the original 1–32
// processor grid keeps M00001–M00432, the 48/64/96/128-processor scale
// block is appended as M00433–M00720, the banked-interconnect block as
// M00721–M00752, the energy/EDP technology block as M00753–M00800, and
// the point-to-point topology block as M00801–M00848:
//
//	sc, _ := clockgate.ScenarioByID("M00042")
//	campaign, err := session.RunScenarios(ctx, []clockgate.Scenario{sc})
//
// # Energy technology axis and journal re-pricing
//
// The power model is a campaign axis, not a constant: a named
// energy.Tech technology point (leakage share, TCC cache factor — pinned
// or priced from the RW-bit tracking resolution by the cacti model —
// miss activity, SRPG keep fraction) prices every cell's residency
// ledgers. CampaignOptions.Tech and Cell.Tech select the point (""
// means the paper's Table I model, DefaultTechName), TechByName /
// TechNames list the registry, and the CSV carries per-state energy,
// EDP and ED²P columns plus the tech name per row. Because a technology
// point changes pricing but never timing, any checkpoint or fleet
// journal can be re-emitted under other tech points without
// re-simulating — pure checkpoint arithmetic, byte-identical to a fresh
// simulated run under that tech (golden-pinned):
//
//	campaign, err := clockgate.Reprice("fleet.jsonl", "t45", "t65-srpg50")
//	campaign.WriteCSV(os.Stdout)
//
// The CLI form is `experiments -reprice fleet.jsonl -tech t45,t65-srpg50`;
// the energy/EDP matrix block (M00753–M00800) sweeps the same axis as
// addressable cases, and docs/ENERGY.md specifies the model and the
// re-pricing contract.
//
// # Interconnect models
//
// The machine's interconnect is either the paper's single
// split-transaction bus (the default) or an address-interleaved banked
// bus opening the 64/128-processor scale axis: Config.Machine.Banks
// selects the shape (0 = single bus, a power of two = that many banks),
// DefaultBankedConfig64/128 are the wide presets, CampaignOptions.Banks
// and Cell.Banks thread it through campaigns, and `cmd/experiments
// -banks N` through the CLI. Banks=1 is the single bus's one link — the
// banks=1 row of TestDoneSetEquivalence pins the byte-identity over the
// whole E2E done-set — and docs/ENGINE.md specifies the interleave and
// cross-bank dispatch order.
//
// Beyond the bus models, Config.Machine.Topology selects a point-to-point
// fabric: "xbar" (a full crossbar with per source→destination pair
// reservation), "mesh[:RxC]" (a 2D mesh with XY dimension-order routing)
// or "ring[:N]" (a bidirectional ring, shorter arc first). Topology
// specs parse with ParseTopology, CampaignOptions.Topology and
// Cell.Topology thread the axis through campaigns (the topology matrix
// block, case IDs M00801–M00848, sweeps it), and `cmd/experiments
// -topology spec` through the CLI. The fabrics replace banking rather
// than composing with it (non-bus topologies require Banks=0), and their
// degenerate shapes — a 1×1 mesh or a 1-node ring — are byte-identical
// to the single bus over the whole E2E done-set, pinned by the mesh:1x1
// and ring:1 rows of TestDoneSetEquivalence. docs/ENGINE.md specifies
// the routing functions and the per-link dispatch order.
package clockgate

import (
	"context"
	"fmt"
	"net"

	"repro/internal/bus"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stamp"
	"repro/internal/tcc"
	"repro/internal/trace"
	"repro/internal/workload"
)

// App names a built-in synthetic workload preset.
type App = stamp.App

// The workload presets evaluated in the paper.
const (
	Genome   = stamp.Genome
	Yada     = stamp.Yada
	Intruder = stamp.Intruder
)

// Extension presets beyond the paper's evaluation.
const (
	Bayes     = stamp.Bayes
	KMeans    = stamp.KMeans
	Labyrinth = stamp.Labyrinth
	SSCA2     = stamp.SSCA2
	Vacation  = stamp.Vacation
)

// PaperApps returns the presets used in the paper's evaluation.
func PaperApps() []App { return stamp.PaperApps() }

// AllApps returns every built-in preset.
func AllApps() []App { return stamp.AllApps() }

// WorkloadSpec re-exports the synthetic workload generator parameters, for
// callers that want custom workloads instead of the presets.
type WorkloadSpec = workload.Spec

// Trace re-exports the workload trace type.
type Trace = workload.Trace

// Config re-exports the full machine + gating configuration.
type Config = config.Config

// MaxProcessors is the widest machine the simulator models: the
// directories keep full-bit-vector sharer sets in two 64-bit words, so
// the scale axis tops out at 128 cores.
const MaxProcessors = config.MaxProcessors

// DefaultConfig returns the paper's Table II machine for the given core
// count, gating disabled. Core counts up to MaxProcessors validate; the
// 64- and 128-processor scale points are also available as
// config presets (config.Default64 / config.Default128).
func DefaultConfig(processors int) Config { return config.Default(processors) }

// MaxBanks is the banked interconnect's bank-count ceiling (banks must
// be a power of two).
const MaxBanks = config.MaxBanks

// DefaultBankedConfig64 returns the 64-processor machine on a 4-banked
// interconnect — the first wide design point where the single split bus
// starts to saturate.
func DefaultBankedConfig64() Config { return config.DefaultBanked64() }

// DefaultBankedConfig128 returns the widest machine (MaxProcessors) on
// an 8-banked interconnect.
func DefaultBankedConfig128() Config { return config.DefaultBanked128() }

// Topology is a parsed point-to-point interconnect shape: the kind
// ("bus", "xbar", "mesh", "ring") plus its dimensions.
type Topology = bus.Topology

// ParseTopology parses an interconnect topology spec — "bus", "xbar[:N]",
// "mesh[:RxC]", "ring[:N]" — against the given processor count. Unsized
// specs take their natural dimensions from the machine (the mesh folds
// the core count into a near-square grid). The empty spec is the bus.
func ParseTopology(spec string, processors int) (Topology, error) {
	return bus.ParseTopology(spec, processors)
}

// PowerModel re-exports the Table I power model.
type PowerModel = power.Model

// DefaultPowerModel returns the paper's Table I factors (Run 1.0,
// Miss 0.32, Commit 0.44, Gated 0.20).
func DefaultPowerModel() PowerModel { return power.Default() }

// Tech is a named energy technology point: the bundle of power-model
// parameters (leakage, TCC cache factor or cacti-priced RW-bit
// resolution, miss activity, SRPG keep fraction) that prices a cell's
// residency ledgers. See internal/energy and docs/ENERGY.md.
type Tech = energy.Tech

// DefaultTechName is the default technology point's name — the paper's
// Table I model — which the empty Tech sentinel resolves to everywhere.
const DefaultTechName = energy.DefaultName

// TechByName resolves a registered technology point by name.
func TechByName(name string) (Tech, bool) { return energy.ByName(name) }

// TechNames returns every registered technology point name in canonical
// order.
func TechNames() []string { return energy.Names() }

// Reprice streams a checkpoint or fleet journal and re-prices every
// recorded cell under the given technology points — tech-major, records
// in canonical order within each block — without re-simulating
// anything: energy is a pure function of the journal's integer residency
// totals and the tech's power model, so the result is byte-identical to
// a fresh simulated run under each tech (pinned by the reprice row of
// TestDoneSetEquivalence).
// With no techs given, records re-price under their own recorded tech
// points, regenerating the journal's campaign output as-is. The CLI form
// is `experiments -reprice journal.jsonl -tech name[,name...]`.
func Reprice(journalPath string, techs ...string) (*Campaign, error) {
	return experiments.RepriceFile(journalPath, techs)
}

// Experiment describes one paired (ungated vs gated) run.
type Experiment struct {
	// App selects a built-in preset. Ignored when Trace is set.
	App App
	// Trace supplies a custom workload; it must have Processors threads.
	Trace *Trace
	// Processors is the core count (the paper sweeps 4, 8, 16).
	Processors int
	// W0 is the contention-management window constant; 0 means the
	// paper's default of 8.
	W0 int64
	// Seed drives deterministic workload generation.
	Seed uint64
	// Configure optionally edits the machine configuration of both runs.
	Configure func(*Config)
}

// Result is the outcome of a paired experiment.
type Result struct {
	// Ungated and Gated are the raw per-run results.
	Ungated, Gated *RunResult
	cmp            power.Comparison
}

// RunResult re-exports the single-run result type.
type RunResult = tcc.Result

// SpeedUp returns N1/N2: above 1 means gating made the run faster.
func (r *Result) SpeedUp() float64 { return r.cmp.SpeedUp }

// EnergyReductionFactor returns Eug/Eg, the paper's equation (6): above 1
// means gating saved energy.
func (r *Result) EnergyReductionFactor() float64 { return r.cmp.EnergyRatio }

// EnergySavings returns 1 - Eg/Eug as a fraction.
func (r *Result) EnergySavings() float64 { return r.cmp.EnergySavings }

// PowerReductionFactor returns (Eug/Eg)*(N2/N1), equation (7).
func (r *Result) PowerReductionFactor() float64 { return r.cmp.AvgPowerRatio }

// Cycles returns the parallel execution times (N1 ungated, N2 gated).
func (r *Result) Cycles() (n1, n2 int64) { return int64(r.cmp.N1), int64(r.cmp.N2) }

// Energy returns total energy (Eug ungated, Eg gated) in
// run-power-cycle units.
func (r *Result) Energy() (eug, eg float64) { return r.cmp.Eug, r.cmp.Eg }

// Comparison returns the full §IV metric set.
func (r *Result) Comparison() power.Comparison { return r.cmp }

// spec translates the experiment into the core run specification every
// entry point executes.
func (e Experiment) spec() (core.RunSpec, error) {
	if e.Processors <= 0 {
		return core.RunSpec{}, fmt.Errorf("clockgate: processors %d must be positive", e.Processors)
	}
	return core.RunSpec{
		App:        e.App,
		Trace:      e.Trace,
		Processors: e.Processors,
		W0:         sim.Time(e.W0),
		Seed:       e.Seed,
		Configure:  e.Configure,
	}, nil
}

// Run executes the experiment: the identical trace simulated without and
// with the clock-gating protocol, compared under the Table I power model.
func Run(e Experiment) (*Result, error) {
	rs, err := e.spec()
	if err != nil {
		return nil, err
	}
	out, err := core.RunPair(context.Background(), rs, nil)
	if err != nil {
		return nil, err
	}
	return &Result{Ungated: out.Ungated, Gated: out.Gated, cmp: out.Comparison}, nil
}

// RunSingle executes one configuration only (gated selects the protocol).
// Most callers want Run; RunSingle exists for studies that only need one
// side, such as baseline characterization.
func RunSingle(e Experiment, gated bool) (*RunResult, error) {
	return RunSingleWithEvents(e, gated, nil)
}

// GenerateTrace builds the deterministic workload trace a preset would use
// at the given thread count and seed, for inspection or mutation.
func GenerateTrace(app App, threads int, seed uint64) (*Trace, error) {
	return stamp.Generate(app, threads, seed)
}

// GenerateTraceScaled is GenerateTrace with the preset's transaction
// count multiplied by scale (floored at threads) — the same sizing rule
// campaign Options.Scale applies, so single experiments can reproduce a
// campaign cell's workload exactly.
func GenerateTraceScaled(app App, threads int, seed uint64, scale float64) (*Trace, error) {
	spec, err := experiments.ScaledSpec(app, threads, scale)
	if err != nil {
		return nil, err
	}
	return spec.Generate(threads, seed)
}

// EventRecorder captures structured protocol events (commits, aborts,
// gatings, renewals, wake-ups, power-state transitions) from a run.
type EventRecorder = trace.Recorder

// Event is one recorded protocol event.
type Event = trace.Event

// Protocol event kinds, re-exported for filtering.
const (
	EvTxBegin         = trace.EvTxBegin
	EvCommit          = trace.EvCommit
	EvAbort           = trace.EvAbort
	EvValidationAbort = trace.EvValidationAbort
	EvGate            = trace.EvGate
	EvRenew           = trace.EvRenew
	EvUngate          = trace.EvUngate
	EvSelfAbort       = trace.EvSelfAbort
	EvInvalidate      = trace.EvInvalidate
	EvState           = trace.EvState
)

// NewEventRecorder returns an empty recorder for RunSingleWithEvents.
func NewEventRecorder() *EventRecorder { return trace.NewRecorder() }

// CampaignOptions configures a campaign: the workload seed and scale,
// the app/processor grid, the gating window, the interconnect shape,
// the technology point and the worker-pool width (Workers). Serve and
// Work split a campaign across machines.
type CampaignOptions = experiments.Options

// Campaign holds the outcomes of a paired-run campaign and renders the
// paper's figures, tables, summary and CSV from them.
type Campaign = experiments.Campaign

// CampaignSummary is the campaign's headline aggregate (average speed-up,
// energy and power reductions, slowdown count).
type CampaignSummary = experiments.Summary

// Cell is one independently runnable unit of a campaign.
type Cell = experiments.Cell

// Outcome is the paired-run result of one campaign cell, as held in
// Campaign.Outcomes and CellResult.Outcome.
type Outcome = core.Outcome

// DefaultCampaignOptions returns the paper's campaign: genome/yada/
// intruder on 4/8/16 processors with W0 = 8 and seed 42, run
// sequentially.
func DefaultCampaignOptions() CampaignOptions { return experiments.DefaultOptions() }

// Session is the campaign engine every sweep runs on: it owns a worker
// pool, the cross-cell cache of traces and shared baselines, and an
// optional JSONL checkpoint sink.
// Create one with NewSession, run any number of sweeps on it (Run,
// Stream, RunScenarios, Fig7, MultiSeed, Ablations), and Close it when
// done. See the package documentation for the streaming and resume
// semantics.
type Session = experiments.Session

// CellResult is one completed cell of a streamed campaign: the cell, its
// paired-run outcome, and its position in the submitted cell slice
// (sorting a collected stream by Pos reproduces the batch output
// byte-for-byte).
type CellResult = experiments.CellResult

// NewSession creates a campaign session for the given options. The
// worker pool starts lazily; Close releases it.
func NewSession(o CampaignOptions) *Session { return experiments.NewSession(o) }

// Scenario is one named, addressable case of the scenario matrix.
type Scenario = experiments.Scenario

// Contention is a workload conflict-intensity level of the scenario
// matrix.
type Contention = experiments.Contention

// The scenario matrix's contention levels.
const (
	ContentionLow  = experiments.ContentionLow
	ContentionBase = experiments.ContentionBase
	ContentionHigh = experiments.ContentionHigh
)

// ScenarioMatrix returns every scenario the engine can run, in canonical
// order; docs/E2E.md is generated from this list.
func ScenarioMatrix() []Scenario { return experiments.Matrix() }

// MatrixProcessors returns the scenario matrix's legacy processor axis
// (1–32 cores, case IDs M00001–M00432).
func MatrixProcessors() []int {
	return append([]int(nil), experiments.MatrixProcessors...)
}

// MatrixExtensionProcessors returns the appended scale axis (48–128
// cores, case IDs M00433–M00720).
func MatrixExtensionProcessors() []int {
	return append([]int(nil), experiments.MatrixExtensionProcessors...)
}

// MatrixBankedBanks returns the banked-interconnect block's bank axis
// (case IDs M00721–M00752 pair it with the 64/128-processor machines).
func MatrixBankedBanks() []int {
	return append([]int(nil), experiments.MatrixBankedBanks...)
}

// MatrixTopologies returns the point-to-point topology block's
// interconnect axis (case IDs M00801–M00848 pair it with the
// 64/128-processor machines).
func MatrixTopologies() []string {
	return append([]string(nil), experiments.MatrixTopologies...)
}

// ScenarioByID resolves a case id such as "M00042".
func ScenarioByID(id string) (Scenario, bool) { return experiments.ScenarioByID(id) }

// ScenarioByName resolves a scenario address such as "genome/8p/W0=8/base".
func ScenarioByName(name string) (Scenario, bool) { return experiments.ScenarioByName(name) }

// ServeConfig tunes a distributed campaign coordinator: lease TTL and
// batch size, worker poll interval, the post-completion drain grace, an
// optional JSONL journal path (the -resume checkpoint format), the
// straggler-stealing threshold and minimum age, and an OnListen hook
// reporting the bound address.
type ServeConfig = dist.Config

// WorkerConfig tunes a distributed campaign worker: its name, the local
// session pool width (a lease request asks for twice as many cells), the
// HTTP client, and the first backoff delay of its transient-failure
// retries.
type WorkerConfig = dist.WorkerOptions

// WorkerStats summarizes one worker's participation in a distributed
// campaign, with the cache counters of its session (trace generations,
// baselines run and shared, System reuses).
type WorkerStats = dist.WorkerStats

// FleetStatus is one consistent control-plane snapshot of a running
// coordinator: phase counts (always summing to the cell total),
// per-worker lease/return/renewal counters, throughput and ETA — the
// GET /v1/status response.
type FleetStatus = dist.Status

// FetchFleetStatus fetches the /v1/status snapshot of the coordinator
// at addr ("host:port" or an http:// URL) — what `experiments -status`
// prints.
func FetchFleetStatus(ctx context.Context, addr string) (FleetStatus, error) {
	return dist.FetchStatus(ctx, nil, addr)
}

// Serve turns the campaign into a fleet job: it listens on addr, owns
// the campaign's canonical cell list (the options' grid), leases batches
// of cells to any number of Work processes, and merges returned results
// into canonical order. It blocks until every cell is accounted for (or
// ctx is canceled) and returns the merged campaign — byte-identical to
// NewSession(opts).Run, including when workers die mid-lease (their
// cells are re-leased after ServeConfig.LeaseTTL) or return a cell twice
// (first result wins).
// With ServeConfig.CheckpointPath set, every merged cell is journaled in
// the -resume checkpoint format, so an interrupted coordinator restarts
// where it left off. docs/DISTRIBUTED.md specifies the protocol.
func Serve(ctx context.Context, addr string, opts CampaignOptions, cfg ServeConfig) (*Campaign, error) {
	// Listen first: the coordinator creates the journal, and a busy
	// address must not leave one behind.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("clockgate: serve: %w", err)
	}
	c, err := dist.NewCoordinator(opts, opts.Cells(), cfg)
	if err != nil {
		ln.Close()
		return nil, err
	}
	return c.Serve(ctx, ln)
}

// Work joins the coordinator at addr ("host:port" or an http:// URL)
// and executes leased cells on a local session until the campaign is
// done or ctx is canceled. The cells compute on the same engine a local
// campaign uses — worker pool, trace cache, identical bytes.
func Work(ctx context.Context, addr string, o WorkerConfig) (WorkerStats, error) {
	return dist.Work(ctx, addr, o)
}

// RunSingleWithEvents executes one configuration with a protocol event
// recorder attached (nil records nothing).
func RunSingleWithEvents(e Experiment, gated bool, rec *EventRecorder) (*RunResult, error) {
	rs, err := e.spec()
	if err != nil {
		return nil, err
	}
	return core.RunSide(context.Background(), rs, gated, nil, rec)
}
