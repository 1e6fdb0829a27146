package experiments

import (
	"fmt"
	"strings"

	"repro/internal/bus"
	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/sim"
	"repro/internal/stamp"
	"repro/internal/workload"
)

// This file defines the campaign's unit of work — the run-cell — and the
// pure enumeration/partitioning logic around it: canonical cell order,
// per-cell seed derivation, and sharding. Execution lives in session.go:
// a Session owns the worker pool, the trace cache and the checkpoint
// sink, and every sweep in this package (campaign, scenario matrix,
// Fig7, multi-seed, ablations) runs its cells through one.

// Cell is one independently runnable unit of a campaign: a paired
// (ungated vs gated) simulation of one application at one machine size,
// with its own gating window, contention level and workload seed. Cells
// carry everything needed to run them — including the machine-config
// variant, named rather than held as a closure — so they can be
// distributed across goroutines or machines and checkpointed to disk
// without shared state.
type Cell struct {
	// Index is the cell's position in the campaign's canonical order.
	// Results are merged by Index, which is what makes parallel and
	// sharded execution deterministic.
	Index int
	// ID optionally names the scenario-matrix case this cell executes
	// (e.g. "M00042"); empty for plain paper campaigns.
	ID string
	// App is the workload preset.
	App stamp.App
	// Processors is the core count.
	Processors int
	// W0 is the gating window constant (0 means the default, 8).
	W0 sim.Time
	// Contention adjusts the workload's conflict intensity; the empty
	// string means ContentionBase (the preset as published).
	Contention Contention
	// Banks selects the cell's interconnect model: 0 means the single
	// split bus, a positive power of two the banked bus with that many
	// banks. Banks changes the machine, never the workload, so the
	// session's trace cache ignores it (and the checkpoint key must not:
	// see cellKey).
	Banks int
	// Topology selects the cell's interconnect shape: "" or "bus" means
	// whatever Banks selects, "xbar"/"mesh"/"ring" (optionally sized,
	// e.g. "mesh:4x4") the point-to-point fabrics. Like Banks it changes
	// the machine, never the workload — the trace cache ignores it, the
	// checkpoint key must not (see cellKey). Non-bus topologies require
	// Banks=0 (config validation enforces it).
	Topology string
	// Tech names the energy.Tech technology point that prices this cell's
	// residency ledgers; empty means the default point (the paper's
	// Table I model). Like Banks it is a machine-pricing axis, not a
	// workload axis — but unlike Banks it does not even change timing, so
	// both the trace cache AND the simulation ignore it entirely: only the
	// pricing layer (core.RunSpec.Model) and the checkpoint key see it.
	// That independence is what makes journal re-pricing sound.
	Tech string
	// Seed drives workload generation for this cell.
	Seed uint64
	// Variant optionally names a machine-config deviation (see
	// variantConfigure): "policy=<kind>" swaps the gating-window policy,
	// "renewal=off" disables the renewal mechanism. Naming the deviation
	// instead of carrying a closure keeps cells serializable, which the
	// checkpoint sink depends on.
	Variant string
}

// Label renders the cell for figures, tables and error messages:
// "app/NNp" for paper-campaign cells, with "/W0=N", the contention level
// and "[variant]" appended when they deviate from the defaults.
func (c Cell) Label() string {
	s := fmt.Sprintf("%s/%dp", c.App, c.Processors)
	if c.W0 != 0 {
		s += fmt.Sprintf("/W0=%d", c.W0)
	}
	if c.Contention != "" && c.Contention != ContentionBase {
		s += "/" + string(c.Contention)
	}
	if c.Banks > 0 {
		s += fmt.Sprintf("/banks=%d", c.Banks)
	}
	if c.Topology != "" && c.Topology != bus.TopoBus {
		s += "/topo=" + c.Topology
	}
	if c.Tech != "" && c.Tech != energy.DefaultName {
		s += "/tech=" + c.Tech
	}
	if c.Variant != "" {
		s += "[" + c.Variant + "]"
	}
	return s
}

// Cell variants: the named machine-config deviations a cell may carry.
const (
	// VariantPolicyPrefix + a config.PolicyKind selects a gating-window
	// policy other than the configuration default.
	VariantPolicyPrefix = "policy="
	// VariantRenewalOff disables the gating-period renewal mechanism.
	VariantRenewalOff = "renewal=off"
)

// PolicyVariant names the cell variant selecting the given gating-window
// policy.
func PolicyVariant(pk config.PolicyKind) string {
	return VariantPolicyPrefix + string(pk)
}

// variantConfigure resolves a cell's Variant into the machine-config
// mutation applied to both runs of the pair. The empty variant means "no
// deviation" and returns a nil mutator.
func variantConfigure(v string) (func(*config.Config), error) {
	switch {
	case v == "":
		return nil, nil
	case v == VariantRenewalOff:
		return func(c *config.Config) { c.Gating.DisableRenewal = true }, nil
	case strings.HasPrefix(v, VariantPolicyPrefix):
		pk := config.PolicyKind(strings.TrimPrefix(v, VariantPolicyPrefix))
		switch pk {
		case config.PolicyGatingAware, config.PolicyExponential,
			config.PolicyLinear, config.PolicyFixed:
			return func(c *config.Config) { c.Gating.Policy = pk }, nil
		}
		return nil, fmt.Errorf("experiments: unknown policy in cell variant %q", v)
	}
	return nil, fmt.Errorf("experiments: unknown cell variant %q", v)
}

// SplitMix64 is the SplitMix64 finalizer (Steele et al., "Fast splittable
// pseudorandom number generators"). It is used to derive statistically
// independent per-cell seeds from one campaign seed.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// CellSeed derives the workload seed of cell index from the campaign
// seed. The derivation depends only on (campaign seed, cell index), never
// on execution order, so any partition of the campaign across workers or
// shards reproduces the same per-cell workloads.
func CellSeed(campaign uint64, index int) uint64 {
	return SplitMix64(campaign + uint64(index)*0x9e3779b97f4a7c15)
}

// Cells enumerates the campaign's run-cells in canonical order (apps
// outer, processor counts inner — the order the paper's figures present).
// With DeriveSeeds set, each cell gets an independent seed via CellSeed;
// otherwise every cell shares the campaign seed, matching the paper's
// single-seed methodology.
func (o Options) Cells() []Cell {
	var cells []Cell
	for _, app := range o.apps() {
		for _, np := range o.processors() {
			c := Cell{
				Index:      len(cells),
				App:        app,
				Processors: np,
				W0:         o.W0,
				Contention: ContentionBase,
				Banks:      o.Banks,
				Topology:   o.Topology,
				Tech:       o.Tech,
				Seed:       o.Seed,
			}
			if o.DeriveSeeds {
				c.Seed = CellSeed(o.Seed, c.Index)
			}
			cells = append(cells, c)
		}
	}
	return cells
}

// Shard selects one contiguous 1/Count slice of a campaign's cells, for
// splitting a campaign across machines. The zero value means "the whole
// campaign". Because shards are contiguous in canonical cell order,
// concatenating the shard outputs 0..Count-1 reproduces the unsharded
// output exactly.
type Shard struct {
	// Index is this shard's position, 0 <= Index < Count.
	Index int
	// Count is the total number of shards; 0 disables sharding.
	Count int
}

func (s Shard) enabled() bool { return s.Count != 0 }

// Validate checks the shard coordinates.
func (s Shard) Validate() error {
	if !s.enabled() {
		if s.Index != 0 {
			return fmt.Errorf("experiments: shard index %d with zero count", s.Index)
		}
		return nil
	}
	if s.Count < 0 || s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("experiments: shard %d/%d out of range", s.Index, s.Count)
	}
	return nil
}

// ShardCells returns the contiguous slice of cells owned by shard s.
// Slices are balanced to within one cell.
func ShardCells(cells []Cell, s Shard) ([]Cell, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if !s.enabled() {
		return cells, nil
	}
	n := len(cells)
	lo := s.Index * n / s.Count
	hi := (s.Index + 1) * n / s.Count
	return cells[lo:hi], nil
}

func (o Options) workers() int {
	if o.Workers > 1 {
		return o.Workers
	}
	return 1
}

// ScaledSpec returns app's generator parameters with the transaction
// count multiplied by scale, floored at threads. This is the one sizing
// rule every campaign cell and public scaled-trace helper shares, so a
// single experiment can reproduce a campaign cell's workload exactly.
func ScaledSpec(app stamp.App, threads int, scale float64) (workload.Spec, error) {
	spec, err := stamp.Spec(app)
	if err != nil {
		return workload.Spec{}, err
	}
	if scale > 0 && scale != 1.0 {
		spec.TotalTxs = int(float64(spec.TotalTxs) * scale)
		if spec.TotalTxs < threads {
			spec.TotalTxs = threads
		}
	}
	return spec, nil
}
