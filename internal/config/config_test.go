package config

import "testing"

func TestDefaultMatchesTableII(t *testing.T) {
	c := Default(16)
	m := c.Machine
	if m.Processors != 16 {
		t.Errorf("processors %d", m.Processors)
	}
	if m.L1SizeBytes != 64<<10 {
		t.Errorf("L1 size %d, want 64KB", m.L1SizeBytes)
	}
	if m.L1LineBytes != 64 {
		t.Errorf("line size %d, want 64", m.L1LineBytes)
	}
	if m.L1Ways != 2 {
		t.Errorf("ways %d, want 2", m.L1Ways)
	}
	if m.L1HitCycles != 1 {
		t.Errorf("L1 latency %d, want 1", m.L1HitCycles)
	}
	if m.DirectoryCycles != 10 {
		t.Errorf("directory latency %d, want 10", m.DirectoryCycles)
	}
	if m.MemoryCycles != 100 {
		t.Errorf("memory latency %d, want 100", m.MemoryCycles)
	}
	if m.MemoryBytes != 1<<30 {
		t.Errorf("memory size %d, want 1GB", m.MemoryBytes)
	}
	if c.Gating.Enabled {
		t.Error("gating enabled by default")
	}
	if c.Gating.W0 != 8 {
		t.Errorf("W0 %d, want the paper's 8", c.Gating.W0)
	}
	if c.Gating.AbortCounterBits != 8 {
		t.Errorf("abort counter bits %d, want 8", c.Gating.AbortCounterBits)
	}
}

func TestDefaultValidates(t *testing.T) {
	for _, np := range []int{1, 2, 4, 8, 16} {
		if err := Default(np).Validate(); err != nil {
			t.Errorf("Default(%d) invalid: %v", np, err)
		}
		if err := Default(np).WithGating(0).Validate(); err != nil {
			t.Errorf("Default(%d) gated invalid: %v", np, err)
		}
	}
}

func TestWithGating(t *testing.T) {
	c := Default(4).WithGating(32)
	if !c.Gating.Enabled {
		t.Fatal("WithGating did not enable")
	}
	if c.Gating.W0 != 32 {
		t.Fatalf("W0 %d, want 32", c.Gating.W0)
	}
	// Zero keeps the default.
	c2 := Default(4).WithGating(0)
	if c2.Gating.W0 != 8 {
		t.Fatalf("W0 %d, want untouched 8", c2.Gating.W0)
	}
}

func TestWithGatingDoesNotMutateReceiver(t *testing.T) {
	c := Default(4)
	_ = c.WithGating(99)
	if c.Gating.Enabled {
		t.Fatal("WithGating mutated its receiver")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name string
		edit func(*Config)
	}{
		{"zero processors", func(c *Config) { c.Machine.Processors = 0 }},
		{"zero directories", func(c *Config) { c.Machine.Directories = 0 }},
		{"line not power of two", func(c *Config) { c.Machine.L1LineBytes = 48 }},
		{"bad L1 size", func(c *Config) { c.Machine.L1SizeBytes = 1000 }},
		{"zero hit latency", func(c *Config) { c.Machine.L1HitCycles = 0 }},
		{"zero bus", func(c *Config) { c.Machine.BusCycles = 0 }},
		{"zero directory latency", func(c *Config) { c.Machine.DirectoryCycles = 0 }},
		{"zero memory latency", func(c *Config) { c.Machine.MemoryCycles = 0 }},
		{"zero commit cost", func(c *Config) { c.Machine.CommitLineCycles = 0 }},
		{"zero token cost", func(c *Config) { c.Machine.TokenCycles = 0 }},
		{"memory not line multiple", func(c *Config) { c.Machine.MemoryBytes = 1000 }},
		{"gated zero W0", func(c *Config) { c.Gating.Enabled = true; c.Gating.W0 = 0 }},
		{"gated bad abort bits", func(c *Config) { c.Gating.Enabled = true; c.Gating.AbortCounterBits = 0 }},
		{"gated bad renew bits", func(c *Config) { c.Gating.Enabled = true; c.Gating.RenewCounterBits = 64 }},
		{"gated negative wakeup", func(c *Config) { c.Gating.Enabled = true; c.Gating.WakeupCycles = -1 }},
		{"oversize ring", func(c *Config) { c.Machine.Topology = "ring:100000000" }},
		{"overflowing mesh", func(c *Config) { c.Machine.Topology = "mesh:4294967296x4294967296" }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := Default(4)
			c.edit(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatalf("%s passed validation", c.name)
			}
		})
	}
}

func TestScaleAxisPresets(t *testing.T) {
	// The 64p/128p scale presets must validate as-is (with and without
	// gating), and the processor ceiling is tied to the directory sharer
	// vector width.
	for _, cfg := range []Config{Default64(), Default128()} {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%dp preset invalid: %v", cfg.Machine.Processors, err)
		}
		if err := cfg.WithGating(0).Validate(); err != nil {
			t.Fatalf("%dp gated preset invalid: %v", cfg.Machine.Processors, err)
		}
	}
	if Default64().Machine.Processors != 64 || Default128().Machine.Processors != MaxProcessors {
		t.Fatal("scale presets have wrong core counts")
	}
	over := Default(MaxProcessors + 1)
	if err := over.Validate(); err == nil {
		t.Fatalf("%d processors passed validation", MaxProcessors+1)
	}
}

func TestBankedPresetsAndValidation(t *testing.T) {
	// The banked presets must validate as-is, pair the wide machines with
	// their bank counts, and leave everything but the interconnect at the
	// Table II values.
	if cfg := DefaultBanked64(); cfg.Machine.Processors != 64 || cfg.Machine.Banks != 4 {
		t.Fatalf("DefaultBanked64 = %dp/%d banks, want 64p/4", cfg.Machine.Processors, cfg.Machine.Banks)
	}
	if cfg := DefaultBanked128(); cfg.Machine.Processors != MaxProcessors || cfg.Machine.Banks != 8 {
		t.Fatalf("DefaultBanked128 = %dp/%d banks, want %dp/8", cfg.Machine.Processors, cfg.Machine.Banks, MaxProcessors)
	}
	for _, cfg := range []Config{DefaultBanked64(), DefaultBanked128()} {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("banked preset (%dp) invalid: %v", cfg.Machine.Processors, err)
		}
		if err := cfg.WithGating(0).Validate(); err != nil {
			t.Fatalf("banked gated preset (%dp) invalid: %v", cfg.Machine.Processors, err)
		}
		want := Default(cfg.Machine.Processors).Machine
		want.Banks = cfg.Machine.Banks
		if cfg.Machine != want {
			t.Fatalf("banked preset deviates beyond the interconnect: %+v", cfg.Machine)
		}
	}
	// Banks must be 0 (single bus) or a power of two within MaxBanks.
	for _, banks := range []int{0, 1, 2, 4, 8, 16, 32, 64} {
		if err := Default(8).WithBanks(banks).Validate(); err != nil {
			t.Errorf("banks=%d rejected: %v", banks, err)
		}
	}
	for _, banks := range []int{-1, 3, 5, 6, 7, 12, 65, 128} {
		if err := Default(8).WithBanks(banks).Validate(); err == nil {
			t.Errorf("banks=%d passed validation", banks)
		}
	}
}
