package energy

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cacti"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TestDefaultTechReproducesPaperModel pins the backward-compatibility
// anchor of the whole axis: the default technology point derives exactly
// power.Default() — bit-identical factors, because every pre-energy-axis
// CSV byte depends on it. The default pins CacheFactor at the paper's
// 1.5 rather than pricing via cacti (which gives ~1.45 at the same
// design point); this test is what notices if someone "simplifies" that.
func TestDefaultTechReproducesPaperModel(t *testing.T) {
	got, want := Default().Model(), power.Default()
	if got != want {
		t.Fatalf("default tech model %+v != power.Default() %+v", got, want)
	}
	if r, err := Resolve(""); err != nil || r.Name != DefaultName {
		t.Fatalf("empty name resolved to %+v, %v", r, err)
	}
	if CanonicalName("") != DefaultName || CanonicalName("t45") != "t45" {
		t.Fatal("CanonicalName normalization broken")
	}
}

func TestRegistryValidatesAndResolves(t *testing.T) {
	names := Names()
	if len(names) == 0 || names[0] != DefaultName {
		t.Fatalf("registry order broken: %v", names)
	}
	seen := map[string]bool{}
	for _, tech := range Techs() {
		if err := tech.Validate(); err != nil {
			t.Errorf("registered tech invalid: %v", err)
		}
		if seen[tech.Name] {
			t.Errorf("duplicate tech %s", tech.Name)
		}
		seen[tech.Name] = true
		got, ok := ByName(tech.Name)
		if !ok || got != tech {
			t.Errorf("ByName(%s) = %+v, %v", tech.Name, got, ok)
		}
		if !FiniteModel(tech.Model()) {
			t.Errorf("tech %s derives a non-finite model", tech.Name)
		}
		if d := tech.Describe(); !strings.Contains(d, tech.Name) || !strings.Contains(d, tech.Fingerprint()) {
			t.Errorf("Describe for %s lacks name or fingerprint:\n%s", tech.Name, d)
		}
	}
	if _, err := Resolve("no-such-tech"); err == nil {
		t.Fatal("unknown tech resolved")
	}
	if _, ok := ByName(""); ok {
		t.Fatal("ByName resolved the empty sentinel; only Resolve may")
	}
}

func TestValidateRejectsOutOfRange(t *testing.T) {
	valid := Default()
	for name, mutate := range map[string]func(*Tech){
		"bad name":            func(x *Tech) { x.Name = "Bad Name!" },
		"empty name":          func(x *Tech) { x.Name = "" },
		"leakage negative":    func(x *Tech) { x.Leakage = -0.1 },
		"leakage one":         func(x *Tech) { x.Leakage = 1.0 },
		"leakage NaN":         func(x *Tech) { x.Leakage = math.NaN() },
		"miss above one":      func(x *Tech) { x.MissActivity = 1.5 },
		"miss NaN":            func(x *Tech) { x.MissActivity = math.NaN() },
		"keep negative":       func(x *Tech) { x.Keep = -0.01 },
		"keep above one":      func(x *Tech) { x.Keep = 1.01 },
		"keep NaN":            func(x *Tech) { x.Keep = math.NaN() },
		"cache factor tiny":   func(x *Tech) { x.CacheFactor = 0.5 },
		"cache factor NaN":    func(x *Tech) { x.CacheFactor = math.NaN() },
		"resolution zero":     func(x *Tech) { x.ResolutionBytes = 0 },
		"resolution too big":  func(x *Tech) { x.ResolutionBytes = 65 },
		"cache size zero":     func(x *Tech) { x.CacheKB = 0 },
		"cache size negative": func(x *Tech) { x.CacheKB = -64 },
	} {
		x := valid
		mutate(&x)
		if err := x.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, x)
		}
	}
}

// TestGatedMonotoneInLeakageKeep is the derivation's key monotonicity
// property: the gated power factor is exactly leakage·keep, so it is
// monotone (non-decreasing) in both, and SRPG can only reduce it.
func TestGatedMonotoneInLeakageKeep(t *testing.T) {
	prev := -1.0
	for _, leak := range []float64{0, 0.1, 0.2, 0.36, 0.5, 0.8, 0.99} {
		for _, keep := range []float64{0, 0.1, 0.5, 1.0} {
			x := Default()
			x.Leakage, x.Keep = leak, keep
			if err := x.Validate(); err != nil {
				t.Fatalf("grid point invalid: %v", err)
			}
			m := x.Model()
			if m.Gated != leak*keep {
				t.Fatalf("Gated = %v, want leakage*keep = %v", m.Gated, leak*keep)
			}
			if m.Run != 1.0 {
				t.Fatalf("Run = %v, normalization broken", m.Run)
			}
		}
		// Monotone along the leakage axis at full keep.
		x := Default()
		x.Leakage = leak
		if g := x.Model().Gated; g < prev {
			t.Fatalf("Gated not monotone in leakage: %v after %v", g, prev)
		} else {
			prev = g
		}
	}
}

// TestEnergyLinearInResidency pins the property the reprice engine's
// byte-identity contract rests on: energy is a linear function of the
// integer per-state residency totals. A power-of-two scale factor
// commutes exactly with float64 rounding, so the check is bit-exact —
// no tolerance that drift could hide inside.
func TestEnergyLinearInResidency(t *testing.T) {
	base := [][stats.NumStates]sim.Time{
		{1000, 200, 50, 300},
		{800, 100, 75, 0},
	}
	scaled := make([][stats.NumStates]sim.Time, len(base))
	for p := range base {
		for s := range base[p] {
			scaled[p][s] = 4 * base[p][s]
		}
	}
	for _, tech := range Techs() {
		m := tech.Model()
		l1 := stats.RestoreLedger(base, 2000)
		l4 := stats.RestoreLedger(scaled, 8000)
		e1 := m.Energy(l1)
		e4 := m.Energy(l4)
		if e4 != 4*e1 {
			t.Errorf("tech %s: energy not linear in residency: E(4r)=%v, 4E(r)=%v", tech.Name, e4, e1*4)
		}
		bs := m.EnergyByState(l1)
		sum := bs[0] + bs[1] + bs[2] + bs[3]
		if sum != e1 {
			t.Errorf("tech %s: per-state breakdown sums to %v, Energy is %v", tech.Name, sum, e1)
		}
	}
}

func TestEDPAndED2P(t *testing.T) {
	if EDP(2.5, 100) != 250 {
		t.Fatal("EDP broken")
	}
	if ED2P(2.5, 100) != 25000 {
		t.Fatal("ED2P broken")
	}
	if !math.IsNaN(EDP(math.NaN(), 10)) {
		t.Fatal("EDP must propagate NaN for the CSV's NA rendering")
	}
}

func TestFingerprintTracksParamsNotName(t *testing.T) {
	a := Default()
	b := a
	b.Name = "renamed"
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fingerprint depends on the name; it must identify parameters only")
	}
	c := a
	c.Leakage = 0.21
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("fingerprint misses a leakage change")
	}
	d := a
	d.CacheFactor = 0 // switch to cacti pricing: different multiplier
	if a.Fingerprint() == d.Fingerprint() {
		t.Fatal("fingerprint misses the pinned-vs-priced cache factor")
	}
}

// TestCactiPricedFactorMatchesConfig pins the cacti hook: an unpinned
// tech prices its cache factor at exactly the default cacti config's
// TCCFactor, and the byte-tracking point is costlier than word tracking.
func TestCactiPricedFactorMatchesConfig(t *testing.T) {
	cfg := cacti.DefaultConfig()
	word, _ := ByName("t45")
	if got, want := word.TCCCacheFactor(), cfg.TCCFactor(2, 64); got != want {
		t.Fatalf("t45 cache factor %v, cacti says %v", got, want)
	}
	byteT, _ := ByName("t65-byte")
	if byteT.TCCCacheFactor() <= word.TCCCacheFactor() {
		t.Fatal("byte-granularity tracking should cost more than word-granularity at the same cacti config")
	}
}

// FuzzTechDerivation fuzzes the whole parameter space: any Tech that
// validates must derive a finite model with the invariants the Table I
// derivation promises (Run normalized to 1, Gated = leakage·keep,
// Miss between Gated and Commit for miss activity in [0,1]).
func FuzzTechDerivation(f *testing.F) {
	f.Add(0.2, 0.5, 1.0, 1.5, 2, 64)
	f.Add(0.36, 0.5, 0.1, 0.0, 1, 128)
	f.Add(0.0, 0.0, 0.0, 1.0, 64, 16)
	f.Add(0.99, 1.0, 1.0, 15.9, 32, 1024)
	f.Fuzz(func(t *testing.T, leak, miss, keep, cf float64, res, kb int) {
		x := Tech{
			Name: "fuzz", Leakage: leak, MissActivity: miss, Keep: keep,
			CacheFactor: cf, ResolutionBytes: res, CacheKB: kb,
		}
		if err := x.Validate(); err != nil {
			t.Skip()
		}
		m := x.Model()
		if !FiniteModel(m) {
			t.Fatalf("valid tech %+v derived non-finite model %+v", x, m)
		}
		if m.Run != 1.0 {
			t.Fatalf("Run %v != 1", m.Run)
		}
		if m.Gated != leak*keep {
			t.Fatalf("Gated %v != leakage*keep %v", m.Gated, leak*keep)
		}
		if m.Gated < 0 || m.Commit < leak || m.Miss < leak {
			t.Fatalf("factor below leakage floor: %+v (leak %v)", m, leak)
		}
		if m.Miss > m.Commit {
			t.Fatalf("Miss %v above Commit %v with miss activity %v in [0,1]", m.Miss, m.Commit, miss)
		}
	})
}
