// Package config collects every tunable of the simulated machine in one
// place. The defaults reproduce Table II of the paper plus the protocol
// constants its text fixes (W0 = 8 for the experiments, 8-bit abort
// counter saturation, and so on).
package config

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/sim"
)

// MaxProcessors is the widest machine the simulator models. The
// directories keep full-bit-vector sharer sets in two 64-bit words, so
// the scale axis tops out at 128 cores; Validate rejects anything wider.
// It is the interconnect's node ceiling, which also bounds every
// topology's tile count.
const MaxProcessors = bus.MaxNodes

// MaxBanks bounds the banked interconnect's bank count. Banks must be a
// power of two (the address interleave masks low line-address bits), and
// more banks than half the machine's ceiling would model more independent
// wire sets than components that could drive them.
const MaxBanks = 64

// Machine describes the simulated hardware platform (paper Table II).
type Machine struct {
	// Processors is the number of single-issue in-order cores (1–16 in
	// the paper's experiments; this reproduction scales the axis to
	// MaxProcessors).
	Processors int
	// Directories is the number of memory directories. The paper's
	// example system pairs one directory with each processor.
	Directories int
	// L1SizeBytes is the L1 data cache capacity (64 KB).
	L1SizeBytes int
	// L1LineBytes is the cache line size (64 B).
	L1LineBytes int
	// L1Ways is the associativity (2-way).
	L1Ways int
	// L1HitCycles is the L1 hit latency (1 cycle).
	L1HitCycles sim.Time
	// BusCycles is the occupancy of one message on the common
	// split-transaction bus (per bank, when Banks selects the banked
	// interconnect).
	BusCycles sim.Time
	// Banks selects the interconnect model: 0 (the default) is the
	// paper's single split-transaction bus; a positive power of two is
	// the address-interleaved banked bus with that many banks. Banks=1
	// is the banked model degenerated to one bank — cycle-identical to
	// the single bus, kept distinct so the two implementations can be
	// differentially tested against each other.
	Banks int
	// Topology selects the interconnect model by shape: "" or "bus"
	// (the default) is whatever the Banks axis selects; "xbar", "mesh"
	// and "ring" are the point-to-point fabrics, optionally with an
	// explicit size ("xbar:N", "ring:N", "mesh:RxC" — unsized forms
	// scale with the processor count; see bus.ParseTopology). BusCycles
	// is the per-link occupancy on every topology. The fabrics route by
	// endpoint, so they do not compose with Banks: a non-bus topology
	// requires Banks to be 0.
	Topology string
	// DirectoryCycles is the directory access latency (10 cycles).
	DirectoryCycles sim.Time
	// MemoryCycles is the main-memory access latency (100 cycles,
	// single read/write port — the port is modeled by the directory
	// serializing its accesses).
	MemoryCycles sim.Time
	// MemoryBytes is the physical memory size (1 GB).
	MemoryBytes uint64
	// CommitLineCycles is the directory occupancy for committing one
	// speculative line (one directory access per line).
	CommitLineCycles sim.Time
	// TokenCycles is the token-vendor service time for one TID request,
	// excluding the bus crossings on either side.
	TokenCycles sim.Time
}

// Gating describes the clock-gating protocol of the paper (§III, §V, §VI).
type Gating struct {
	// Enabled turns the whole mechanism on. Off reproduces the
	// ungated baseline.
	Enabled bool
	// W0 is the base gating window of the contention-management
	// formula Wt = W0*(2^ceil(lg Na) + 2^ceil(lg Nr)). The paper's
	// experiments use 8.
	W0 sim.Time
	// AbortCounterBits bounds the per-directory abort counter (8 in
	// the paper: saturates at 255).
	AbortCounterBits int
	// RenewCounterBits bounds the renew counter (modeled with the
	// same width).
	RenewCounterBits int
	// ControlCircuitCycles is the delay of the Fig. 2(e) un-gate
	// control circuit (the high fan-in OR takes multiple cycles,
	// which "extends the clock gating period further by a small
	// amount of time").
	ControlCircuitCycles sim.Time
	// WakeupCycles is the delay between the On command reaching the
	// processor's main PLL and the core executing again.
	WakeupCycles sim.Time
	// DisableRenewal turns off the renewal check: the directory
	// un-gates blindly when the timer expires. Used for the ablation
	// of the renewal mechanism.
	DisableRenewal bool
	// Policy selects the contention-management policy that sizes the
	// gating window: "gating-aware" (the paper's equation 8, default),
	// "exponential" (polite exponential back-off), "linear", or
	// "fixed" (constant window W0). Used by the policy ablation.
	Policy PolicyKind
}

// PolicyKind names a contention-management policy.
type PolicyKind string

// The selectable gating-window policies.
const (
	// PolicyGatingAware is the paper's staircase policy (default).
	PolicyGatingAware PolicyKind = "gating-aware"
	// PolicyExponential is conventional exponential polite back-off.
	PolicyExponential PolicyKind = "exponential"
	// PolicyLinear grows the window linearly with the abort count.
	PolicyLinear PolicyKind = "linear"
	// PolicyFixed always gates for exactly W0 cycles.
	PolicyFixed PolicyKind = "fixed"
)

// Config is a full simulation configuration.
type Config struct {
	Machine Machine
	Gating  Gating
	// Seed records the seed the run's workload trace was generated
	// with. No simulator code reads it: every trace is generated before
	// the configuration is built (core.RunSpec, Session.provisionTrace).
	Seed uint64
	// MaxCycles aborts the simulation if it runs past this time; a
	// safety net against protocol livelock. Zero means no limit.
	MaxCycles sim.Time
}

// Default returns the paper's Table II machine with gating disabled and
// processors cores.
func Default(processors int) Config {
	return Config{
		Machine: Machine{
			Processors:       processors,
			Directories:      processors,
			L1SizeBytes:      64 << 10,
			L1LineBytes:      64,
			L1Ways:           2,
			L1HitCycles:      1,
			BusCycles:        2,
			DirectoryCycles:  10,
			MemoryCycles:     100,
			MemoryBytes:      1 << 30,
			CommitLineCycles: 10,
			TokenCycles:      2,
		},
		Gating: Gating{
			Enabled:              false,
			W0:                   8,
			AbortCounterBits:     8,
			RenewCounterBits:     8,
			ControlCircuitCycles: 4,
			WakeupCycles:         4,
		},
		Seed: 1,
	}
}

// Default64 is the 64-processor scale-axis preset: the Table II machine
// widened to 64 cores with one directory per core, the first design point
// beyond the paper's evaluation grid.
func Default64() Config { return Default(64) }

// Default128 is the 128-processor scale-axis preset — the widest machine
// the full-bit-vector directories support (MaxProcessors).
func Default128() Config { return Default(128) }

// DefaultBanked64 is the 64-processor machine on a 4-banked interconnect:
// the wide-machine design point where the single bus starts to saturate
// and banking first pays off.
func DefaultBanked64() Config { return Default64().WithBanks(4) }

// DefaultBanked128 is the widest machine on an 8-banked interconnect —
// the scale-axis endpoint the banked model exists for.
func DefaultBanked128() Config { return Default128().WithBanks(8) }

// WithBanks returns a copy of c on a banks-banked interconnect (0 restores
// the single split bus).
func (c Config) WithBanks(banks int) Config {
	c.Machine.Banks = banks
	return c
}

// ValidateBanks checks a bank count in isolation: 0 selects the single
// split bus, anything else must be a power of two no wider than MaxBanks.
// Validate applies it to Machine.Banks; the CLI uses it to reject a bad
// -banks value before any work starts.
func ValidateBanks(banks int) error {
	if banks < 0 {
		return fmt.Errorf("config: banks %d must be non-negative", banks)
	}
	if banks > 0 && (banks&(banks-1) != 0 || banks > MaxBanks) {
		return fmt.Errorf("config: banks %d must be a power of two up to %d (the address interleave masks low line bits)", banks, MaxBanks)
	}
	return nil
}

// WithGating returns a copy of c with the gating protocol enabled and the
// given W0 (0 keeps the current value).
func (c Config) WithGating(w0 sim.Time) Config {
	c.Gating.Enabled = true
	if w0 > 0 {
		c.Gating.W0 = w0
	}
	return c
}

// Validate checks internal consistency.
func (c Config) Validate() error {
	m := c.Machine
	if m.Processors <= 0 {
		return fmt.Errorf("config: processors %d must be positive", m.Processors)
	}
	if m.Processors > MaxProcessors {
		return fmt.Errorf("config: processors %d exceed the %d-wide directory sharer vectors", m.Processors, MaxProcessors)
	}
	if m.Directories <= 0 {
		return fmt.Errorf("config: directories %d must be positive", m.Directories)
	}
	if m.L1LineBytes <= 0 || m.L1LineBytes&(m.L1LineBytes-1) != 0 {
		return fmt.Errorf("config: line size %d not a power of two", m.L1LineBytes)
	}
	if m.L1SizeBytes <= 0 || m.L1SizeBytes%(m.L1Ways*m.L1LineBytes) != 0 {
		return fmt.Errorf("config: L1 size %d incompatible with geometry", m.L1SizeBytes)
	}
	if err := ValidateBanks(m.Banks); err != nil {
		return err
	}
	if err := bus.ValidateTopology(m.Topology, m.Banks, m.Processors); err != nil {
		return err
	}
	if m.L1HitCycles <= 0 || m.BusCycles <= 0 || m.DirectoryCycles <= 0 ||
		m.MemoryCycles <= 0 || m.CommitLineCycles <= 0 || m.TokenCycles <= 0 {
		return fmt.Errorf("config: all latencies must be positive")
	}
	if m.MemoryBytes == 0 || m.MemoryBytes%uint64(m.L1LineBytes) != 0 {
		return fmt.Errorf("config: memory size %d incompatible with line size", m.MemoryBytes)
	}
	g := c.Gating
	if g.Enabled {
		if g.W0 <= 0 {
			return fmt.Errorf("config: gating W0 %d must be positive", g.W0)
		}
		if g.AbortCounterBits <= 0 || g.AbortCounterBits > 32 {
			return fmt.Errorf("config: abort counter bits %d out of range", g.AbortCounterBits)
		}
		if g.RenewCounterBits <= 0 || g.RenewCounterBits > 32 {
			return fmt.Errorf("config: renew counter bits %d out of range", g.RenewCounterBits)
		}
		if g.ControlCircuitCycles < 0 || g.WakeupCycles < 0 {
			return fmt.Errorf("config: gating delays must be non-negative")
		}
		switch g.Policy {
		case "", PolicyGatingAware, PolicyExponential, PolicyLinear, PolicyFixed:
		default:
			return fmt.Errorf("config: unknown gating policy %q", g.Policy)
		}
	}
	return nil
}
