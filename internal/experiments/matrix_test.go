package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/stamp"
)

func TestMatrixShape(t *testing.T) {
	m := Matrix()
	perCombo := len(MatrixW0Values) * len(ContentionLevels())
	want := len(stamp.AllApps())*(len(MatrixProcessors)+len(MatrixExtensionProcessors))*perCombo +
		len(stamp.AllApps())*len(MatrixBankedProcessors)*len(MatrixBankedBanks) +
		len(stamp.AllApps())*len(MatrixTechProcessors)*len(MatrixTechPoints) +
		len(stamp.AllApps())*len(MatrixTopologyProcessors)*len(MatrixTopologies)
	if len(m) != want {
		t.Fatalf("%d scenarios, want %d", len(m), want)
	}
	if want != 848 {
		t.Fatalf("matrix has %d addressable cases, want 848 (432 legacy + 288 scale extension + 32 banked + 48 energy + 48 topology)", want)
	}
	ids := map[string]bool{}
	names := map[string]bool{}
	for i, s := range m {
		if s.Ord != i {
			t.Errorf("scenario %d has Ord %d", i, s.Ord)
		}
		if want := fmt.Sprintf("M%05d", i+1); s.ID != want {
			t.Errorf("scenario %d has ID %q, want %q", i, s.ID, want)
		}
		if ids[s.ID] || names[s.Name()] {
			t.Errorf("duplicate scenario %s (%s)", s.ID, s.Name())
		}
		ids[s.ID] = true
		names[s.Name()] = true
	}
}

// TestLegacyIDsStable pins the append-only ID contract: the original
// 432-case grid keeps its exact (ID, name) pairs, and the scale extension
// starts at M00433. A failure here means old checkpoints, CSVs and docs
// silently changed meaning.
func TestLegacyIDsStable(t *testing.T) {
	legacy := len(stamp.AllApps()) * len(MatrixProcessors) * len(MatrixW0Values) * len(ContentionLevels())
	if legacy != 432 {
		t.Fatalf("legacy block is %d cases, want 432", legacy)
	}
	for id, name := range map[string]string{
		"M00001": "genome/1p/W0=2/low",
		"M00042": "genome/16p/W0=8/high",
		"M00055": "yada/1p/W0=2/low",
		"M00432": "vacation/32p/W0=32/high",
	} {
		s, ok := ScenarioByID(id)
		if !ok || s.Name() != name {
			t.Errorf("legacy %s = %q, want %q", id, s.Name(), name)
		}
	}
	// The extension block starts right after the legacy grid and walks
	// the appended processor axis.
	first := Matrix()[legacy]
	if first.ID != "M00433" || first.Processors != MatrixExtensionProcessors[0] {
		t.Errorf("extension block starts at %s/%dp, want M00433/%dp",
			first.ID, first.Processors, MatrixExtensionProcessors[0])
	}
	for _, s := range Matrix()[:legacy] {
		for _, np := range MatrixExtensionProcessors {
			if s.Processors == np {
				t.Fatalf("extension processor count %d leaked into legacy block (%s)", np, s.ID)
			}
		}
	}
	// The banked block rides behind the scale extension: everything up to
	// M00720 keeps Banks=0 (the PR-3 grid unchanged), the banked block
	// starts at exactly M00721, and only it carries a bank count.
	busOnly := legacy + len(stamp.AllApps())*len(MatrixExtensionProcessors)*
		len(MatrixW0Values)*len(ContentionLevels())
	for _, s := range Matrix()[:busOnly] {
		if s.Banks != 0 {
			t.Fatalf("bank count %d leaked into pre-banked block (%s)", s.Banks, s.ID)
		}
	}
	banked, ok := ScenarioByID("M00721")
	if !ok || banked.Banks == 0 || banked.Ord != busOnly {
		t.Errorf("banked block should start at M00721 (ord %d), got %+v", busOnly, banked)
	}
	if s, ok := ScenarioByID("M00720"); !ok || s.Banks != 0 || s.Name() != "vacation/128p/W0=32/high" {
		t.Errorf("M00720 = %q, want vacation/128p/W0=32/high with Banks=0", s.Name())
	}
	bankedEnd := busOnly + len(stamp.AllApps())*len(MatrixBankedProcessors)*len(MatrixBankedBanks)
	for _, s := range Matrix()[busOnly:bankedEnd] {
		if s.Banks == 0 {
			t.Errorf("banked-block case %s has no bank count", s.ID)
		}
	}
	// The energy block rides behind the banked block: everything up to
	// M00752 keeps Tech="" (the PR-4 grid unchanged), the energy block
	// starts at exactly M00753, and only it carries a technology point.
	for _, s := range Matrix()[:bankedEnd] {
		if s.Tech != "" {
			t.Fatalf("technology point %q leaked into pre-energy block (%s)", s.Tech, s.ID)
		}
	}
	if s, ok := ScenarioByID("M00752"); !ok || s.Tech != "" || s.Banks == 0 {
		t.Errorf("M00752 = %+v, want the last banked case with no tech point", s)
	}
	tech, ok := ScenarioByID("M00753")
	if !ok || tech.Tech == "" || tech.Ord != bankedEnd {
		t.Errorf("energy block should start at M00753 (ord %d), got %+v", bankedEnd, tech)
	}
	techEnd := bankedEnd + len(stamp.AllApps())*len(MatrixTechProcessors)*len(MatrixTechPoints)
	for _, s := range Matrix()[bankedEnd:techEnd] {
		if s.Tech == "" || s.Banks != 0 {
			t.Errorf("energy-block case %s should carry a tech point and no bank count", s.ID)
		}
	}
	// The topology block rides behind the energy block: everything up to
	// M00800 keeps Topology="" (the PR-5 grid unchanged), the topology
	// block starts at exactly M00801, and only it carries a topology spec
	// (with neither banks nor a tech point — the fabrics do not compose
	// with banking, and pricing stays at the default point).
	for _, s := range Matrix()[:techEnd] {
		if s.Topology != "" {
			t.Fatalf("topology %q leaked into pre-topology block (%s)", s.Topology, s.ID)
		}
	}
	if s, ok := ScenarioByID("M00800"); !ok || s.Topology != "" || s.Tech == "" {
		t.Errorf("M00800 = %+v, want the last energy case with no topology", s)
	}
	topo, ok := ScenarioByID("M00801")
	if !ok || topo.Topology == "" || topo.Ord != techEnd {
		t.Errorf("topology block should start at M00801 (ord %d), got %+v", techEnd, topo)
	}
	for _, s := range Matrix()[techEnd:] {
		if s.Topology == "" || s.Banks != 0 || s.Tech != "" {
			t.Errorf("topology-block case %s should carry a topology and nothing else", s.ID)
		}
	}
}

// TestDoneSetCoversScaleAxis checks the promoted cases: every app proves
// out 32 cores, the paper apps smoke-test 64, and intruder walks the
// scale axis through 128.
func TestDoneSetCoversScaleAxis(t *testing.T) {
	done := map[string]bool{}
	for _, s := range DoneScenarios() {
		if s.Contention == ContentionBase && s.W0 == matrixDefaultW0 {
			done[fmt.Sprintf("%s/%d", s.App, s.Processors)] = true
		}
	}
	for _, app := range stamp.AllApps() {
		if !done[fmt.Sprintf("%s/32", app)] {
			t.Errorf("%s not executed at 32p", app)
		}
	}
	for _, app := range stamp.PaperApps() {
		if !done[fmt.Sprintf("%s/64", app)] {
			t.Errorf("%s not executed at 64p", app)
		}
	}
	for _, np := range []int{48, 96, 128} {
		if !done[fmt.Sprintf("%s/%d", stamp.Intruder, np)] {
			t.Errorf("intruder not executed at %dp", np)
		}
	}
}

func TestScenarioLookup(t *testing.T) {
	for _, s := range Matrix() {
		byID, ok := ScenarioByID(s.ID)
		if !ok || byID != s {
			t.Fatalf("ScenarioByID(%q) = %+v, %v", s.ID, byID, ok)
		}
		byName, ok := ScenarioByName(s.Name())
		if !ok || byName != s {
			t.Fatalf("ScenarioByName(%q) = %+v, %v", s.Name(), byName, ok)
		}
	}
	if _, ok := ScenarioByID("M99999"); ok {
		t.Fatal("bogus id resolved")
	}
	if _, ok := ScenarioByName("nope/1p/W0=8/base"); ok {
		t.Fatal("bogus name resolved")
	}
}

func TestContentionApplyShiftsConflictAndValidates(t *testing.T) {
	for _, app := range stamp.AllApps() {
		base := stamp.MustSpec(app)
		low := ContentionLow.Apply(base)
		high := ContentionHigh.Apply(base)
		if same := ContentionBase.Apply(base); same != base {
			t.Errorf("%s: base contention altered the spec", app)
		}
		if !(low.HotFrac < base.HotFrac && base.HotFrac < high.HotFrac) {
			t.Errorf("%s: HotFrac not ordered: %f / %f / %f", app, low.HotFrac, base.HotFrac, high.HotFrac)
		}
		if !(low.HotLines > base.HotLines && base.HotLines > high.HotLines) {
			t.Errorf("%s: HotLines not ordered: %d / %d / %d", app, low.HotLines, base.HotLines, high.HotLines)
		}
		if err := low.Validate(); err != nil {
			t.Errorf("%s low: %v", app, err)
		}
		if err := high.Validate(); err != nil {
			t.Errorf("%s high: %v", app, err)
		}
	}
}

func TestContentionShapesAborts(t *testing.T) {
	// The contention axis must actually move the conflict rate. Low must
	// conflict less than both base and high for every tested app. (High
	// is not required to exceed base: presets such as intruder already
	// sit at the abort ceiling, where concentrating the hot set further
	// shortens transactions and can reduce overlap.)
	o := Options{Seed: 7, Scale: 0.1}
	s := NewSession(o)
	defer s.Close()
	for _, app := range []stamp.App{stamp.Intruder, stamp.Genome} {
		aborts := map[Contention]uint64{}
		for _, lvl := range ContentionLevels() {
			outs, err := s.RunCells(context.Background(),
				[]Cell{{App: app, Processors: 8, Seed: 7, Contention: lvl}})
			if err != nil {
				t.Fatalf("%s/%s: %v", app, lvl, err)
			}
			aborts[lvl] = outs[0].Ungated.Counters.Aborts
		}
		if aborts[ContentionLow] >= aborts[ContentionBase] || aborts[ContentionLow] >= aborts[ContentionHigh] {
			t.Errorf("%s: low contention does not conflict least: low=%d base=%d high=%d",
				app, aborts[ContentionLow], aborts[ContentionBase], aborts[ContentionHigh])
		}
	}
}

func TestDoneScenariosAreExecutable(t *testing.T) {
	done := DoneScenarios()
	if len(done) == 0 {
		t.Fatal("no done scenarios")
	}
	// Every done scenario resolves and reports itself done; the grid has
	// the coverage the case table promises.
	var hasBig, hasW0, hasContention, hasExtension bool
	for _, s := range done {
		if !s.Done() || s.Status() != "done" {
			t.Errorf("%s: inconsistent done status", s.ID)
		}
		if s.Processors >= 16 {
			hasBig = true
		}
		if s.W0 != matrixDefaultW0 {
			hasW0 = true
		}
		if s.Contention != ContentionBase {
			hasContention = true
		}
		if !isPaperApp(s.App) {
			hasExtension = true
		}
	}
	if !hasBig || !hasW0 || !hasContention || !hasExtension {
		t.Fatalf("done set misses an axis: big=%v w0=%v contention=%v extension=%v",
			hasBig, hasW0, hasContention, hasExtension)
	}
}

func TestScenarioSeedIndependentOfSubset(t *testing.T) {
	m := Matrix()
	s := m[41] // arbitrary non-first scenario
	alone := s.Cell(0, 42)
	inSubset := s.Cell(7, 42)
	if alone.Seed != inSubset.Seed {
		t.Fatalf("scenario seed depends on run position: %d vs %d", alone.Seed, inSubset.Seed)
	}
	if alone.Seed != CellSeed(42, s.Ord) {
		t.Fatalf("scenario seed %d not derived from matrix ordinal", alone.Seed)
	}
}

func TestRunScenariosLabelsByCase(t *testing.T) {
	o := Options{Seed: 42, Scale: 0.02, Workers: 4}
	scenarios := []Scenario{}
	for _, id := range []string{"M00013", "M00014"} {
		s, ok := ScenarioByID(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		scenarios = append(scenarios, s)
	}
	c, err := newSession(t, o).RunScenarios(context.Background(), scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Outcomes) != 2 {
		t.Fatalf("%d outcomes", len(c.Outcomes))
	}
	detail := c.DetailTable()
	if !strings.Contains(detail, "W0=") {
		t.Fatalf("detail table lacks scenario labels:\n%s", detail)
	}
	var csvOut strings.Builder
	if err := c.WriteCSV(&csvOut); err != nil {
		t.Fatal(err)
	}
	for _, s := range scenarios {
		if !strings.Contains(csvOut.String(), s.ID) {
			t.Errorf("CSV lacks case id %s:\n%s", s.ID, csvOut.String())
		}
	}
}

func TestMatrixTableAndE2EDoc(t *testing.T) {
	table := MatrixTable()
	doc := E2EDoc()
	for _, s := range []Scenario{Matrix()[0], Matrix()[len(Matrix())-1]} {
		if !strings.Contains(table, s.ID) {
			t.Errorf("matrix table missing %s", s.ID)
		}
		if !strings.Contains(doc, s.ID) {
			t.Errorf("E2E doc missing %s", s.ID)
		}
	}
	for _, want := range []string{"case id", "category", "title", "check point", "priority", "status", "| done"} {
		if !strings.Contains(doc, want) {
			t.Errorf("E2E doc missing %q", want)
		}
	}
}
