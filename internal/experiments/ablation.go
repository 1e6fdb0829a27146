package experiments

import (
	"context"
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/report"
	"repro/internal/stamp"
)

// AblationResult is one row of an ablation table.
type AblationResult struct {
	Variant     string
	SpeedUp     float64
	EnergyRatio float64
	Gatings     uint64
	Renewals    uint64
}

// The ablation axes, in the order the tables present them.
var (
	ablationPolicies = []config.PolicyKind{
		config.PolicyGatingAware, config.PolicyExponential,
		config.PolicyLinear, config.PolicyFixed,
	}
	renewalVariantNames = []string{"renewal on", "renewal off"}
	srpgLeakageKeeps    = []float64{1.0, 0.5, 0.25, 0.1}
)

// policyCells enumerates the policy ablation as run-cells on the most
// contended configuration (intruder at the largest core count).
func policyCells(o Options) []Cell {
	np := maxProcessors(o)
	cells := make([]Cell, len(ablationPolicies))
	for i, pk := range ablationPolicies {
		cells[i] = Cell{
			Index:      i,
			App:        stamp.Intruder,
			Processors: np,
			W0:         o.W0,
			Contention: ContentionBase,
			Banks:      o.Banks,
			Seed:       o.Seed,
			Variant:    PolicyVariant(pk),
		}
	}
	return cells
}

// renewalCells enumerates the renewal ablation as run-cells on the
// workload the paper credits the mechanism for (yada: long,
// loop-repeated transactions).
func renewalCells(o Options) []Cell {
	np := maxProcessors(o)
	return []Cell{
		{Index: 0, App: stamp.Yada, Processors: np, W0: o.W0, Contention: ContentionBase, Banks: o.Banks, Seed: o.Seed},
		{Index: 1, App: stamp.Yada, Processors: np, W0: o.W0, Contention: ContentionBase, Banks: o.Banks, Seed: o.Seed,
			Variant: VariantRenewalOff},
	}
}

// srpgCell is the single paired run the SRPG ablation re-prices.
func srpgCell(o Options) Cell {
	return Cell{App: stamp.Intruder, Processors: maxProcessors(o), W0: o.W0,
		Contention: ContentionBase, Banks: o.Banks, Seed: o.Seed}
}

func ablationRow(variant string, cmp power.Comparison, out *core.Outcome) AblationResult {
	return AblationResult{
		Variant:     variant,
		SpeedUp:     cmp.SpeedUp,
		EnergyRatio: cmp.EnergyRatio,
		Gatings:     out.Gated.Counters.Gatings,
		Renewals:    out.Gated.Counters.Renewals,
	}
}

// policyRows, renewalRows and srpgRows turn the respective cells'
// outcomes into table rows; the standalone ablations and the combined
// suite share them, so the two paths cannot drift.
func policyRows(outs []*core.Outcome) []AblationResult {
	rows := make([]AblationResult, len(outs))
	for i, out := range outs {
		rows[i] = ablationRow(string(ablationPolicies[i]), out.Comparison, out)
	}
	return rows
}

func renewalRows(outs []*core.Outcome) []AblationResult {
	rows := make([]AblationResult, len(outs))
	for i, out := range outs {
		rows[i] = ablationRow(renewalVariantNames[i], out.Comparison, out)
	}
	return rows
}

func srpgRows(out *core.Outcome) []AblationResult {
	rows := make([]AblationResult, 0, len(srpgLeakageKeeps))
	for _, keep := range srpgLeakageKeeps {
		m := power.Default().WithSRPG(keep)
		cmp := power.Compare(m, out.Ungated.Ledger, out.Gated.Ledger)
		rows = append(rows, ablationRow(fmt.Sprintf("retain %.0f%% leakage", keep*100), cmp, out))
	}
	return rows
}

// AblationPolicies compares gating-window policies on the most contended
// configuration (intruder at the largest core count). The paper's §VI
// argues plain back-off policies are a poor fit for highly contentious
// applications; this quantifies the claim on this simulator. The variants
// run as one cell set on the session's worker pool and share one cached
// trace.
func (s *Session) AblationPolicies(ctx context.Context) ([]AblationResult, error) {
	outs, err := s.RunCells(ctx, policyCells(s.opts))
	if err != nil {
		return nil, fmt.Errorf("experiments: policy ablation: %w", err)
	}
	return policyRows(outs), nil
}

// AblationRenewal measures the renewal mechanism's contribution on the
// workload the paper credits it for (yada: long, loop-repeated
// transactions). Both variants run on the session's worker pool against
// one cached trace.
func (s *Session) AblationRenewal(ctx context.Context) ([]AblationResult, error) {
	outs, err := s.RunCells(ctx, renewalCells(s.opts))
	if err != nil {
		return nil, fmt.Errorf("experiments: renewal ablation: %w", err)
	}
	return renewalRows(outs), nil
}

// AblationSRPG re-prices one paired run under state-retention power gating
// at several retained-leakage fractions (paper §IV). One cell runs on the
// engine; the re-pricing is pure arithmetic on its ledgers.
func (s *Session) AblationSRPG(ctx context.Context) ([]AblationResult, error) {
	outs, err := s.RunCells(ctx, []Cell{srpgCell(s.opts)})
	if err != nil {
		return nil, fmt.Errorf("experiments: SRPG ablation: %w", err)
	}
	return srpgRows(outs[0]), nil
}

func maxProcessors(o Options) int {
	np := 0
	for _, p := range o.processors() {
		if p > np {
			np = p
		}
	}
	return np
}

// renderAblation formats one ablation as a table.
func renderAblation(title string, rows []AblationResult) string {
	t := report.Table{
		Title:   title,
		Headers: []string{"variant", "speed-up", "E-ratio", "gatings", "renewals"},
	}
	for _, r := range rows {
		t.AddRow(r.Variant,
			fmt.Sprintf("%.3f", r.SpeedUp),
			fmt.Sprintf("%.3f", r.EnergyRatio),
			fmt.Sprintf("%d", r.Gatings),
			fmt.Sprintf("%d", r.Renewals))
	}
	return t.Render()
}

// Ablations runs the full ablation suite and renders the tables. All
// three studies' cells execute as one combined set on the session's
// worker pool — no per-run fan-out — and the intruder cells share one
// cached trace.
func (s *Session) Ablations(ctx context.Context) (string, error) {
	pol := policyCells(s.opts)
	ren := renewalCells(s.opts)
	srpg := srpgCell(s.opts)
	cells := make([]Cell, 0, len(pol)+len(ren)+1)
	cells = append(cells, pol...)
	cells = append(cells, ren...)
	cells = append(cells, srpg)
	for i := range cells {
		cells[i].Index = i
	}
	outs, err := s.RunCells(ctx, cells)
	if err != nil {
		return "", fmt.Errorf("experiments: ablations: %w", err)
	}

	out := renderAblation("Ablation: gating-window policy (intruder, max cores)",
		policyRows(outs[:len(pol)])) + "\n"
	out += renderAblation("Ablation: renewal mechanism (yada, max cores)",
		renewalRows(outs[len(pol):len(pol)+len(ren)])) + "\n"
	out += renderAblation("Ablation: state-retention power gating (intruder, max cores)",
		srpgRows(outs[len(pol)+len(ren)]))
	return out, nil
}
