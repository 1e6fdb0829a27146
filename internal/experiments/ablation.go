package experiments

import (
	"context"
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/energy"
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
		cells[i] = o.cell(i, stamp.Intruder, np)
		cells[i].Variant = PolicyVariant(pk)
	}
	return cells
}

// renewalCells enumerates the renewal ablation as run-cells on the
// workload the paper credits the mechanism for (yada: long,
// loop-repeated transactions).
func renewalCells(o Options) []Cell {
	np := maxProcessors(o)
	on, off := o.cell(0, stamp.Yada, np), o.cell(1, stamp.Yada, np)
	off.Variant = VariantRenewalOff
	return []Cell{on, off}
}

// srpgCell is the single paired run the SRPG ablation re-prices.
func srpgCell(o Options) Cell {
	return o.cell(0, stamp.Intruder, maxProcessors(o))
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
// outcomes into table rows.
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

// srpgRows re-prices the SRPG cell c's paired run under state-retention
// power gating at each retained-leakage fraction (paper §IV): the cell's
// technology point, with the fraction in place of its own keep. The
// re-pricing is pure arithmetic on the run's ledgers.
func srpgRows(c Cell, out *core.Outcome) ([]AblationResult, error) {
	tech, err := energy.Resolve(c.Tech)
	if err != nil {
		return nil, err
	}
	base := power.Derive(tech.Breakdown())
	rows := make([]AblationResult, 0, len(srpgLeakageKeeps))
	for _, keep := range srpgLeakageKeeps {
		cmp := power.Compare(base.WithSRPG(keep), out.Ungated.Ledger, out.Gated.Ledger)
		rows = append(rows, ablationRow(fmt.Sprintf("retain %.0f%% leakage", keep*100), cmp, out))
	}
	return rows, nil
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

// Ablations runs the full ablation suite and renders the tables:
//
//   - gating-window policies on the most contended configuration
//     (intruder at the largest core count). The paper's §VI argues plain
//     back-off policies are a poor fit for highly contentious
//     applications; this quantifies the claim on this simulator;
//   - the renewal mechanism on the workload the paper credits it for
//     (yada: long, loop-repeated transactions);
//   - one intruder pair re-priced under state-retention power gating.
//
// Every cell carries the campaign's interconnect shape and technology
// point. All three studies' cells execute as one combined set on the
// session's worker pool, and the intruder cells share one cached trace.
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
	srpgOut, err := srpgRows(srpg, outs[len(pol)+len(ren)])
	if err != nil {
		return "", fmt.Errorf("experiments: ablations: %w", err)
	}
	out += renderAblation("Ablation: state-retention power gating (intruder, max cores)", srpgOut)
	return out, nil
}
