package clockgate

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/power"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestRunTimelinePinned pins the state timeline and the paper's interval
// decomposition on a real run: intruder on 4 processors at seed 42
// (tccsim's defaults), ungated and gated. The expected values were
// recorded from the per-transition timeline the residency ledger used to
// keep; the segments now come from the run's recorded power-state events,
// and the values must not move. The
// energies are equation (5) for the ungated run and equation (1) for the
// gated one, compared bit for bit.
func TestRunTimelinePinned(t *testing.T) {
	for _, tc := range []struct {
		gated       bool
		full, zoom  string
		x           []sim.Time
		alpha, beta []float64
		energy      float64
	}{
		{
			gated: false,
			full: `timeline [0, 602243) — '#'=run 'm'=miss 'C'=commit '.'=gated
p0   |mmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmm#########################################|
p1   |mmmmmmmmmmmm###m####################################################################################|
p2   |mmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmm#m#################|
p3   |mmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmm##############################################################|
`,
			zoom: `timeline [600, 4600) — '#'=run 'm'=miss 'C'=commit '.'=gated
p0   |mmmmmmmmmmmmmmmmmmmmmm#mmmmmmmmmmmmmmmmmmmmmmmm#mmmmmmmmmmm##mmmmmmmmmmm##mmmmmmmmmmmmmmmmmmmmmmmmmm|
p1   |mmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmm|
p2   |mmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmm#C##mmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmm|
p3   |##mmmmmmmmmmmmm##mmmmmmmmmmm#Cmmmmmmmmmmmmmmmmmmmmmmmmmmmmm#Cmmmmmmmm#mmmmmmmmmmmmmmmmmmm##mmmmmmm##|
`,
			x:      []sim.Time{86821, 146408, 140161, 148157, 80696},
			alpha:  []float64{0, 0.8057688104475166, 0.8978531831251204, 0.9379419579680114, 0.9352415237434322},
			beta:   []float64{0, 0.19423118955248347, 0.1021468168748796, 0.062058042031988586, 0.06475847625656786},
			energy: 1.60972904e+06,
		},
		{
			gated: true,
			full: `timeline [0, 578770) — '#'=run 'm'=miss 'C'=commit '.'=gated
p0   |mmmmmmm......................mmmmmm#################################################################|
p1   |mmmmmmmm############################################################################################|
p2   |mmmm........................................................................mmmmmmm#################|
p3   |mmmmmm.....................mmmmmmmmmm.m..............mmmmm##########################################|
`,
			zoom: `timeline [600, 4600) — '#'=run 'm'=miss 'C'=commit '.'=gated
p0   |mmmmmmmmmmmmmmmmmmmmmm#mmm#mm..........................mmmmmmm#mmm.mmmmmm......................mmmmm|
p1   |mmmmmmmmmmmmmmmmmmmmmmmmmmmmm..mmmmmmmmmmmmmmmmmmmmmmm##mmm##mmmm####mmmm#mmmmmmmmmmmmmmmmmmCmmmmmm#|
p2   |mmmmmmmmmmmmmmmm.mmmmmmmmmmmmmmmmmmmmmm#C##mmmmmmmmmmmmmmmm.mmmmmmm.mmmmm.mmmmmmmmmmmmmmmmmm..mmmmmm|
p3   |##mmmmmmmmmmmmm##mmmmmmmmmmm#Cmmmmmmmmmmmmmmmmmmmmmmmmm......mmmmm.mmmmmmmmmmmmmmmmmmmmmmmmm.mmmmmmm|
`,
			x:      []sim.Time{85057, 140017, 137249, 153266, 63181},
			alpha:  []float64{0, 0.28987194412107103, 0.2707706431376549, 0.3373611890438845, 0.47775834507209447},
			beta:   []float64{0, 0.18886278094802775, 0.09393875365212133, 0.059352150292084786, 0.10174736075718967},
			energy: 1.4855992e+06,
		},
	} {
		t.Run(fmt.Sprintf("gated=%v", tc.gated), func(t *testing.T) {
			rec := NewEventRecorder()
			res, err := RunSingleWithEvents(Experiment{App: Intruder, Processors: 4, Seed: 42}, tc.gated, rec)
			if err != nil {
				t.Fatal(err)
			}
			segs := trace.Segments(rec.Events(), 4, res.Cycles)
			if got := (report.Timeline{Segments: segs, End: res.Cycles, Width: 100}).Render(); got != tc.full {
				t.Errorf("full timeline:\n%s\nwant:\n%s", got, tc.full)
			}
			if got := (report.Timeline{Segments: segs, End: res.Cycles, Width: 100, From: 600, To: 4600}).Render(); got != tc.zoom {
				t.Errorf("zoomed timeline:\n%s\nwant:\n%s", got, tc.zoom)
			}
			im := power.Intervals(segs, res.Cycles)
			if !slices.Equal(im.X, tc.x) || !slices.Equal(im.Alpha, tc.alpha) || !slices.Equal(im.Beta, tc.beta) {
				t.Errorf("intervals X %v alpha %v beta %v, want X %v alpha %v beta %v",
					im.X, im.Alpha, im.Beta, tc.x, tc.alpha, tc.beta)
			}
			energy := im.UngatedEnergy(power.Default())
			if tc.gated {
				energy = im.GatedEnergy(power.Default())
			}
			if energy != tc.energy {
				t.Errorf("interval energy %v, want %v", energy, tc.energy)
			}
		})
	}
}
