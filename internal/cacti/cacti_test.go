package cacti

import (
	"math"
	"testing"
)

func TestPaperAnchor64KBWordTracking(t *testing.T) {
	// "For a 64KB cache with word level (2B) state tracking the power
	// increase is limited to 5%."
	cfg := DefaultConfig()
	p := cfg.RWBitPower(2, 64)
	if p < 104 || p > 106 {
		t.Fatalf("64KB @ 2B = %f units, want ~105", p)
	}
}

func TestPaperAnchorTCCFactor(t *testing.T) {
	// "the power of the entire data cache that supports TCC is,
	// conservatively, 1.5 times that of the normal data cache."
	cfg := DefaultConfig()
	f := cfg.TCCFactor(2, 64)
	if f < 1.4 || f > 1.6 {
		t.Fatalf("TCC factor %f, want ~1.5", f)
	}
}

func TestPowerIncreasesWithFinerResolution(t *testing.T) {
	cfg := DefaultConfig()
	for _, kb := range CacheSizesKB {
		prev := -1.0
		// Resolutions are ordered coarse -> fine; power must increase.
		for _, res := range Resolutions {
			p := cfg.RWBitPower(res, kb)
			if p <= prev {
				t.Fatalf("size %dKB: power not increasing at res %dB (%f after %f)",
					kb, res, p, prev)
			}
			prev = p
		}
	}
}

func TestOverheadShrinksWithCacheSize(t *testing.T) {
	// Larger caches amortize periphery: relative RW-bit overhead at a
	// fixed resolution must not grow with capacity.
	cfg := DefaultConfig()
	for _, res := range Resolutions {
		prev := math.Inf(1)
		for _, kb := range CacheSizesKB {
			p := cfg.RWBitPower(res, kb)
			if p > prev {
				t.Fatalf("res %dB: overhead grew with size at %dKB", res, kb)
			}
			prev = p
		}
	}
}

func TestLineResolutionNearlyFree(t *testing.T) {
	// Line-granularity tracking adds only 2 bits per 512-bit line.
	cfg := DefaultConfig()
	if p := cfg.RWBitPower(64, 64); p > 101 {
		t.Fatalf("line-level tracking costs %f units, should be ~free", p)
	}
}

func TestRWBitsPerLine(t *testing.T) {
	cfg := DefaultConfig()
	cases := []struct{ res, want int }{
		{64, 2}, {32, 4}, {16, 8}, {8, 16}, {4, 32}, {2, 64}, {1, 128},
	}
	for _, c := range cases {
		if got := cfg.rwBitsPerLine(c.res); got != c.want {
			t.Errorf("rwBitsPerLine(%d) = %d, want %d", c.res, got, c.want)
		}
	}
}

func TestBadResolutionPanics(t *testing.T) {
	cfg := DefaultConfig()
	for _, res := range []int{0, -1, 128} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("resolution %d did not panic", res)
				}
			}()
			cfg.RWBitPower(res, 64)
		}()
	}
}

func TestFigure3Complete(t *testing.T) {
	cfg := DefaultConfig()
	for _, kb := range CacheSizesKB {
		for _, res := range Resolutions {
			if p := cfg.RWBitPower(res, kb); p < BasePower || p > BasePower*1.3 {
				t.Fatalf("implausible Figure 3 point: %d KB at %d B resolution, power %v", kb, res, p)
			}
		}
	}
}

func TestTCCCachePowerComponents(t *testing.T) {
	cfg := DefaultConfig()
	// Total = RW-bit array + FIFO + controller; FIFO scales with size.
	small := cfg.TCCCachePower(2, 16)
	big := cfg.TCCCachePower(2, 128)
	if small >= big {
		t.Fatal("TCC adders should grow with cache size (bigger FIFO)")
	}
	if cfg.TCCCachePower(2, 64) <= cfg.RWBitPower(2, 64) {
		t.Fatal("TCC cache power missing FIFO/controller adders")
	}
}
