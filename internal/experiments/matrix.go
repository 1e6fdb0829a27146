package experiments

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/bus"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stamp"
	"repro/internal/workload"
)

// This file is the scenario matrix: the single source of truth for
// "every scenario we can run". It enumerates an expanded evaluation grid
// — every STAMP preset, 1–128 processors, several gating windows and
// contention levels — as named, addressable cases. The CLI runs cases by
// ID, docs/E2E.md lists them as a case table, and e2e_test.go executes
// every case the table marks done, so the three can never drift apart.
//
// Case IDs are append-only. The original 432-case grid (processor axis
// 1–32) keeps IDs M00001–M00432 forever; the 48–128-processor scale
// extension is enumerated as a separate block appended after it
// (M00433–M00720); the banked-interconnect block rides behind that
// (M00721–M00752); the energy/EDP technology block behind that
// (M00753–M00800); the point-to-point topology block behind that
// (M00801–M00848). Existing checkpoints, CSVs and docs keep meaning the
// same cases.

// Contention adjusts a workload preset's conflict intensity around the
// published STAMP characteristics.
type Contention string

const (
	// ContentionLow halves the share of operations hitting the shared
	// hot set and spreads them over twice as many lines.
	ContentionLow Contention = "low"
	// ContentionBase is the preset as published (no adjustment).
	ContentionBase Contention = "base"
	// ContentionHigh concentrates accesses: more operations on a quarter
	// of the hot lines with a steeper skew.
	ContentionHigh Contention = "high"
)

// ContentionLevels returns the matrix's contention axis in canonical
// order.
func ContentionLevels() []Contention {
	return []Contention{ContentionLow, ContentionBase, ContentionHigh}
}

// Apply returns the spec adjusted to this contention level. The result
// always satisfies workload.Spec.Validate for valid inputs.
func (c Contention) Apply(s workload.Spec) workload.Spec {
	switch c {
	case ContentionLow:
		s.HotFrac /= 2
		s.HotLines *= 2
		s.ZipfSkew /= 2
	case ContentionHigh:
		s.HotFrac = (1 + s.HotFrac) / 2
		if s.HotLines = s.HotLines / 4; s.HotLines < 2 {
			s.HotLines = 2
		}
		s.ZipfSkew += 0.3
	}
	return s
}

// The matrix axes beyond the application list (which is stamp.AllApps).
var (
	// MatrixProcessors extends the paper's {4, 8, 16} sweep down to a
	// uniprocessor and up to 32 cores — the legacy axis whose case IDs
	// (M00001–M00432) are stable.
	MatrixProcessors = []int{1, 2, 4, 8, 16, 32}
	// MatrixExtensionProcessors is the scale axis beyond the original
	// grid, up to the 128-processor machine ceiling. Its cases are
	// appended after the legacy block so legacy IDs never shift.
	MatrixExtensionProcessors = []int{48, 64, 96, 128}
	// MatrixW0Values brackets the paper's default gating window of 8.
	MatrixW0Values = []sim.Time{2, 8, 32}
	// MatrixBankedProcessors is the machine-width axis of the banked-
	// interconnect block (M00721+): the wide design points where the
	// single split bus saturates and banking pays off.
	MatrixBankedProcessors = []int{64, 128}
	// MatrixBankedBanks is the block's interconnect axis.
	MatrixBankedBanks = []int{4, 8}
	// MatrixTechPoints is the technology axis of the energy/EDP block
	// (M00753+): the non-default energy.Tech points the matrix sweeps.
	// The default point needs no block of its own — every other case
	// already prices under it.
	MatrixTechPoints = []string{"t45", "t32", "t65-srpg50"}
	// MatrixTechProcessors is the machine-width axis of the energy block:
	// the paper's mid-size grid, where gating behavior is the
	// best-characterized.
	MatrixTechProcessors = []int{8, 16}
	// MatrixTopologies is the interconnect axis of the point-to-point
	// topology block (M00801+): the non-bus bus.Interconnect models.
	// Unsized specs let each machine pick its natural dimensions (the
	// mesh folds to a near-square grid of the core count).
	MatrixTopologies = []string{"xbar", "mesh", "ring"}
	// MatrixTopologyProcessors is the machine-width axis of the topology
	// block: the same wide design points as the banked block, where the
	// single bus saturates and a point-to-point fabric pays off.
	MatrixTopologyProcessors = []int{64, 128}
)

// matrixDefaultW0 is the gating window the paper evaluates; scenarios at
// other windows belong to the W0-sweep category.
const matrixDefaultW0 sim.Time = 8

// Scenario is one named case of the scenario matrix: an application at a
// machine size, gating window and contention level. Scenarios are
// addressable by ID (stable while the axes are) and by Name.
type Scenario struct {
	// ID is the case id, "M" + 5 digits in canonical matrix order.
	ID string
	// Ord is the scenario's ordinal in the full matrix (ID minus one).
	// Per-scenario seeds derive from the campaign seed and Ord, so a
	// case's workload is the same whether it runs alone, in a subset,
	// or on a fleet.
	Ord int
	// App is the workload preset.
	App stamp.App
	// Processors is the core count.
	Processors int
	// W0 is the gating window constant.
	W0 sim.Time
	// Contention is the workload conflict-intensity level.
	Contention Contention
	// Banks is the interconnect shape: 0 for the single split bus (every
	// case outside the banked block), a power of two for the banked bus.
	Banks int
	// Tech is the energy technology point pricing the case's ledgers:
	// empty for the default point (every case outside the energy block),
	// a registered energy.Tech name inside it.
	Tech string
	// Topology is the interconnect topology: empty for the bus models
	// (every case outside the topology block), a bus.ParseTopology spec
	// ("xbar", "mesh", "ring") inside it.
	Topology string
}

// Name returns the scenario's human-readable address, e.g.
// "genome/8p/W0=8/base" ("/banks=N" appended in the banked block).
func (s Scenario) Name() string {
	n := fmt.Sprintf("%s/%dp/W0=%d/%s", s.App, s.Processors, s.W0, s.Contention)
	if s.Banks > 0 {
		n += fmt.Sprintf("/banks=%d", s.Banks)
	}
	if s.Topology != "" {
		n += "/topo=" + s.Topology
	}
	if s.Tech != "" {
		n += "/tech=" + s.Tech
	}
	return n
}

// Title returns the case-table title.
func (s Scenario) Title() string {
	if s.Topology != "" {
		return fmt.Sprintf("%s on %d processor(s), W0=%d, %s contention, %s interconnect topology: paired gated vs ungated run",
			s.App, s.Processors, s.W0, s.Contention, s.Topology)
	}
	if s.Tech != "" {
		return fmt.Sprintf("%s on %d processor(s), W0=%d, %s contention, %s technology point: paired gated vs ungated run",
			s.App, s.Processors, s.W0, s.Contention, s.Tech)
	}
	if s.Banks > 0 {
		return fmt.Sprintf("%s on %d processor(s), W0=%d, %s contention, %d-banked interconnect: paired gated vs ungated run",
			s.App, s.Processors, s.W0, s.Contention, s.Banks)
	}
	return fmt.Sprintf("%s on %d processor(s), W0=%d, %s contention: paired gated vs ungated run",
		s.App, s.Processors, s.W0, s.Contention)
}

func isPaperApp(a stamp.App) bool {
	for _, p := range stamp.PaperApps() {
		if p == a {
			return true
		}
	}
	return false
}

func isPaperNp(np int) bool { return np == 4 || np == 8 || np == 16 }

// Category buckets the scenario for the case table: which axis it
// exercises beyond the paper's evaluation grid.
func (s Scenario) Category() string {
	switch {
	case s.Topology != "":
		return "topology"
	case s.Tech != "":
		return "energy"
	case s.Banks > 0:
		return "interconnect"
	case s.Contention != ContentionBase:
		return "contention"
	case s.W0 != matrixDefaultW0:
		return "w0 sweep"
	case !isPaperApp(s.App):
		return "extension"
	case isPaperNp(s.Processors):
		return "paper grid"
	default:
		return "scale sweep"
	}
}

// CheckPoint states what the executing E2E test asserts for the case.
// Every executed case also carries the gating-counter invariants —
// renewals imply gatings, self-aborts never exceed wake-ups, a
// uniprocessor never gates — with a contention-specific sharpening: high
// contention on a multiprocessor must actually exercise the gating path.
func (s Scenario) CheckPoint() string {
	const counters = "gating-counter invariants (renewals=0 without gatings, self-aborts <= ungates)"
	switch s.Category() {
	case "topology":
		return "paired run completes on the point-to-point fabric; metrics finite; " + counters +
			"; degenerate-shape byte-identity to the single bus pinned by the done-set golden"
	case "energy":
		return "paired run completes under a non-default technology point; energy columns finite; " + counters +
			"; journal reprice byte-identity to fresh simulation pinned by the reprice golden"
	case "interconnect":
		return "paired run completes on the banked interconnect; metrics finite; " + counters +
			"; Banks=1 cycle-equivalence to the single bus pinned by the done-set golden"
	case "contention":
		switch s.Contention {
		case ContentionHigh:
			return "paired run completes at raised contention; metrics finite; " + counters +
				"; gated run actually gates (gatings > 0)"
		default:
			return "paired run completes at lowered contention; metrics finite; " + counters +
				" (the knob itself is asserted pairwise in engine tests)"
		}
	case "w0 sweep":
		return "paired run completes at a non-default gating window; metrics finite; " + counters
	default:
		return "paired run completes; cycles and energy positive and finite; " + counters
	}
}

// Priority ranks the case: p1 for the paper's own grid, p2 for the other
// executed cases, p3 for the rest of the matrix.
func (s Scenario) Priority() string {
	if isPaperApp(s.App) && isPaperNp(s.Processors) &&
		s.W0 == matrixDefaultW0 && s.Contention == ContentionBase {
		return "p1"
	}
	if s.Done() {
		return "p2"
	}
	return "p3"
}

// Done reports whether the case is executed by the E2E harness
// (status "done" in docs/E2E.md); the remaining cases are addressable
// through the CLI but not run in CI, and are listed as "NA".
func (s Scenario) Done() bool {
	base := s.Contention == ContentionBase
	defW0 := s.W0 == matrixDefaultW0
	paper := isPaperApp(s.App)
	if s.Topology != "" {
		// Topology block: the paper apps prove out the mesh at 64 cores,
		// and the high-conflict app runs the widest machine on every
		// fabric — the same shape as the banked block's done set, so the
		// two interconnect axes stay comparable at 128 processors.
		return (paper && s.Processors == 64 && s.Topology == bus.TopoMesh) ||
			(s.App == stamp.Intruder && s.Processors == 128)
	}
	if s.Tech != "" {
		// Energy block: the paper apps prove out every technology point at
		// both machine widths — the grid the reprice golden sweeps, so the
		// done set covers every tech the golden re-prices against.
		return paper
	}
	if s.Banks > 0 {
		// Banked-interconnect block: the paper apps prove out 4 banks at
		// 64 cores, and the high-conflict app runs the widest machine on
		// both bank counts — the configurations the scale axis exists for.
		return (paper && s.Processors == 64 && s.Banks == 4) ||
			(s.App == stamp.Intruder && s.Processors == 128)
	}
	// wide marks the appended 48–128-processor scale block, where the
	// non-default W0/contention grid is executed for the bus-saturating
	// apps (the interconnect work's scientific ground truth).
	wide := s.Processors >= 48
	wideApp := s.App == stamp.Intruder ||
		(s.App == stamp.Genome && s.Processors <= 64)
	switch {
	// Every application at small machine sizes, paper defaults.
	case base && defW0 && s.Processors <= 8:
		return true
	// Every application proves out 16 and 32 cores at paper defaults.
	case base && defW0 && (s.Processors == 16 || s.Processors == 32):
		return true
	// 64-processor smoke for the paper's applications.
	case base && defW0 && s.Processors == 64 && paper:
		return true
	// The high-conflict app walks the whole scale axis, 48–128 included.
	case base && defW0 && s.App == stamp.Intruder:
		return true
	// W0 sweep on every paper app across the paper's machine sizes
	// (4/8/16 cores — the grid the paper's own Figure 7 walks).
	case base && isPaperNp(s.Processors) && paper:
		return true
	// Contention sweep on every paper app across the same grid.
	case defW0 && isPaperNp(s.Processors) && paper:
		return true
	// Wide-machine W0 sweep: intruder across the whole 48–128 axis,
	// genome through 64 cores.
	case base && !defW0 && wide && wideApp:
		return true
	// Wide-machine contention sweep on the same grid.
	case !base && defW0 && wide && wideApp:
		return true
	}
	return false
}

// Status returns the case-table status column.
func (s Scenario) Status() string {
	if s.Done() {
		return "done"
	}
	return "NA"
}

// Cell converts the scenario into a run-cell at position index of the
// current run. The cell's seed is derived from the campaign seed and the
// scenario's matrix ordinal (not the run position), so the workload of a
// case is independent of which other cases run alongside it.
func (s Scenario) Cell(index int, campaignSeed uint64) Cell {
	return Cell{
		Index:      index,
		ID:         s.ID,
		App:        s.App,
		Processors: s.Processors,
		W0:         s.W0,
		Contention: s.Contention,
		Banks:      s.Banks,
		Topology:   s.Topology,
		Tech:       s.Tech,
		Seed:       CellSeed(campaignSeed, s.Ord),
	}
}

var (
	matrixOnce   sync.Once
	matrixCache  []Scenario
	matrixByID   map[string]Scenario
	matrixByName map[string]Scenario
)

func buildMatrix() {
	// The legacy grid first (IDs M00001–M00432, stable forever), then
	// the appended 48–128-processor scale block, then the banked-
	// interconnect block. Appending — never interleaving — new axis
	// values is what keeps old IDs meaningful.
	for _, procs := range [][]int{MatrixProcessors, MatrixExtensionProcessors} {
		for _, app := range stamp.AllApps() {
			for _, np := range procs {
				for _, w0 := range MatrixW0Values {
					for _, cont := range ContentionLevels() {
						ord := len(matrixCache)
						matrixCache = append(matrixCache, Scenario{
							ID:         fmt.Sprintf("M%05d", ord+1),
							Ord:        ord,
							App:        app,
							Processors: np,
							W0:         w0,
							Contention: cont,
						})
					}
				}
			}
		}
	}
	// Banked-interconnect block (M00721+): every app at the wide machine
	// sizes on each bank count, paper-default gating window and base
	// contention — the interconnect axis varies, everything else is the
	// established scale-sweep configuration.
	for _, app := range stamp.AllApps() {
		for _, np := range MatrixBankedProcessors {
			for _, banks := range MatrixBankedBanks {
				ord := len(matrixCache)
				matrixCache = append(matrixCache, Scenario{
					ID:         fmt.Sprintf("M%05d", ord+1),
					Ord:        ord,
					App:        app,
					Processors: np,
					W0:         matrixDefaultW0,
					Contention: ContentionBase,
					Banks:      banks,
				})
			}
		}
	}
	// Energy/EDP technology block (M00753+): every app at the paper's
	// mid-size machine widths under each non-default technology point —
	// paper-default gating window, base contention, single bus. Only the
	// pricing axis varies; timing is identical to the corresponding
	// default-tech case, which is exactly what the reprice engine
	// exploits.
	for _, app := range stamp.AllApps() {
		for _, np := range MatrixTechProcessors {
			for _, tech := range MatrixTechPoints {
				ord := len(matrixCache)
				matrixCache = append(matrixCache, Scenario{
					ID:         fmt.Sprintf("M%05d", ord+1),
					Ord:        ord,
					App:        app,
					Processors: np,
					W0:         matrixDefaultW0,
					Contention: ContentionBase,
					Tech:       tech,
				})
			}
		}
	}
	// Point-to-point topology block (M00801+): every app at the wide
	// machine sizes on each non-bus fabric — paper-default gating window,
	// base contention, Banks=0 (the fabrics do not compose with banking).
	// Only the interconnect topology varies against the established
	// scale-sweep configuration, mirroring the banked block so the two
	// interconnect axes answer the same saturation question.
	for _, app := range stamp.AllApps() {
		for _, np := range MatrixTopologyProcessors {
			for _, topo := range MatrixTopologies {
				ord := len(matrixCache)
				matrixCache = append(matrixCache, Scenario{
					ID:         fmt.Sprintf("M%05d", ord+1),
					Ord:        ord,
					App:        app,
					Processors: np,
					W0:         matrixDefaultW0,
					Contention: ContentionBase,
					Topology:   topo,
				})
			}
		}
	}
	matrixByID = make(map[string]Scenario, len(matrixCache))
	matrixByName = make(map[string]Scenario, len(matrixCache))
	for _, s := range matrixCache {
		matrixByID[s.ID] = s
		matrixByName[s.Name()] = s
	}
}

// Matrix returns every scenario in canonical order: the legacy 1–32
// processor grid (applications outer, paper apps first, then processor
// count, gating window and contention level), followed by the appended
// 48–128 processor scale block in the same nesting, followed by the
// banked-interconnect block (applications outer, then machine width and
// bank count), followed by the energy/EDP technology block (applications
// outer, then machine width and technology point), followed by the
// point-to-point topology block (applications outer, then machine width
// and topology).
func Matrix() []Scenario {
	matrixOnce.Do(buildMatrix)
	out := make([]Scenario, len(matrixCache))
	copy(out, matrixCache)
	return out
}

// ScenarioByID resolves a case id such as "M00042".
func ScenarioByID(id string) (Scenario, bool) {
	matrixOnce.Do(buildMatrix)
	s, ok := matrixByID[id]
	return s, ok
}

// ScenarioByName resolves a scenario address such as "genome/8p/W0=8/base".
func ScenarioByName(name string) (Scenario, bool) {
	matrixOnce.Do(buildMatrix)
	s, ok := matrixByName[name]
	return s, ok
}

// DoneScenarios returns the cases the E2E harness executes, in matrix
// order.
func DoneScenarios() []Scenario {
	var out []Scenario
	for _, s := range Matrix() {
		if s.Done() {
			out = append(out, s)
		}
	}
	return out
}

// ScenarioCells converts the scenarios into run-cells in the given
// (canonical) order, exactly as Session.RunScenarios executes them:
// each cell's seed derives from the campaign seed and the scenario's
// matrix ordinal, and a campaign-wide interconnect override applies to
// every case that does not pin its own shape (the banked and topology
// blocks do).
// The distributed coordinator uses this to own the same canonical cell
// list a local matrix run would execute.
func (o Options) ScenarioCells(scenarios []Scenario) []Cell {
	cells := make([]Cell, len(scenarios))
	for i, sc := range scenarios {
		cells[i] = sc.Cell(i, o.Seed)
		// The two interconnect overrides are mutually exclusive per cell:
		// a fabric does not compose with banking, so a campaign-wide
		// -banks never lands on a topology-block cell and a campaign-wide
		// -topology never lands on a banked-block cell.
		if cells[i].Banks == 0 && cells[i].Topology == "" {
			cells[i].Banks = o.Banks
			if cells[i].Banks == 0 {
				cells[i].Topology = o.Topology
			}
		}
		if cells[i].Tech == "" {
			cells[i].Tech = o.Tech
		}
	}
	return cells
}

// RunScenarios executes the given scenarios as one campaign on the
// session's worker pool. Scenario seeds derive from the campaign seed and
// each scenario's matrix ordinal; Scale applies as usual. Figures, tables
// and CSV label rows by case id.
func (s *Session) RunScenarios(ctx context.Context, scenarios []Scenario) (*Campaign, error) {
	o := s.opts
	cells := o.ScenarioCells(scenarios)
	outs, err := s.RunCells(ctx, cells)
	if err != nil {
		return nil, err
	}
	return &Campaign{Options: o, Cells: cells, Outcomes: outs}, nil
}

// MatrixTable renders the scenario matrix as a plain-text listing.
func MatrixTable() string {
	t := report.Table{
		Title:   fmt.Sprintf("Scenario matrix (%d cases)", len(Matrix())),
		Headers: []string{"case id", "name", "category", "priority", "status"},
	}
	for _, s := range Matrix() {
		t.AddRow(s.ID, s.Name(), s.Category(), s.Priority(), s.Status())
	}
	return t.Render()
}

// E2ECaseTable renders the scenario matrix as the spiderpool-style
// markdown case table embedded in docs/E2E.md.
func E2ECaseTable() string {
	t := report.Table{
		Headers: []string{"case id", "category", "title", "check point", "priority", "status"},
	}
	for _, s := range Matrix() {
		t.AddRow(s.ID, s.Category(), s.Title(), s.CheckPoint(), s.Priority(), s.Status())
	}
	return t.Markdown()
}

// E2EDoc returns the full contents of docs/E2E.md. The file is generated
// (`go run ./cmd/experiments -e2e-doc > docs/E2E.md`) and e2e_test.go
// fails if the committed file differs from this function's output, so
// the case table cannot drift from the scenario matrix.
func E2EDoc() string {
	done := 0
	for _, s := range Matrix() {
		if s.Done() {
			done++
		}
	}
	return fmt.Sprintf(`# E2E scenario matrix

This table enumerates every scenario the streaming session engine can
run: each STAMP preset at 1-128 processors, gating windows W0 of 2/8/32
cycles, low/base/high workload contention, (in the banked block) the
address-interleaved banked interconnect at 4/8 banks, (in the energy
block) the non-default energy technology points t45/t32/t65-srpg50, and
(in the topology block) the point-to-point interconnect fabrics
xbar/mesh/ring. Case ids are append-only: the original 1-32 processor
grid keeps M00001-M00432, the 48/64/96/128-processor scale block is
appended as M00433-M00720, the banked-interconnect block as
M00721-M00752, the energy/EDP technology block as M00753-M00800, and the
point-to-point topology block as M00801-M00848, so existing checkpoints
and CSVs keep naming the same cases. Every sweep — this matrix, the paper
campaign, Fig7, multi-seed, the ablations — executes as run-cells on one
clockgate.Session, which owns the worker pool, the per-workload trace
cache, and the optional JSONL checkpoint sink behind -resume. Cases are
addressable by id:

    go run ./cmd/experiments -matrix M00042,M00049 -detail
    go run ./cmd/experiments -matrix done -detail      # every executed case
    go run ./cmd/experiments -matrix-list              # this table as text
    go run ./cmd/experiments -matrix all -csv out.csv -resume ckpt.jsonl
        # interruptible: re-running restarts at the first incomplete cell

Every case with status "done" (%d of %d) is executed at reduced scale by
e2e_test.go on each CI run — as one streamed campaign whose results are
reordered into canonical order, which the engine guarantees is
byte-identical to a batch run. Each executed case asserts its check-point
column, including the per-contention-level gating-counter invariants.
"NA" cases are runnable on demand but not exercised in CI. This file is
generated — regenerate it with

    go run ./cmd/experiments -e2e-doc > docs/E2E.md

e2e_test.go fails if the committed table differs from the generator, so
the doc, the CLI and the tests share one source of truth.

%s`, done, len(Matrix()), E2ECaseTable())
}
