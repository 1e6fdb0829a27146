package report

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Timeline renders a run's per-processor state timelines as an ASCII
// Gantt chart: one row per processor, one column per time bucket, the
// dominant state of each bucket drawn as a glyph. It makes gating
// behaviour visible at a glance — bursts of '.' (gated) appearing after
// conflicts, miss stalls as 'm', commits as 'C'.
type Timeline struct {
	// Segments holds each processor's timeline, as trace.Segments folds
	// it from a run's recorded events.
	Segments [][]stats.Segment
	// End is the run's length: the timelines cover [0, End).
	End sim.Time
	// Width is the number of time buckets (default 100).
	Width int
	// From/To bound the rendered window; zero values mean the full run.
	From, To sim.Time
}

// stateGlyphs maps each power state to its chart glyph.
var stateGlyphs = [stats.NumStates]byte{
	stats.StateRun:    '#',
	stats.StateMiss:   'm',
	stats.StateCommit: 'C',
	stats.StateGated:  '.',
}

// Render draws the chart.
func (tl Timeline) Render() string {
	if len(tl.Segments) == 0 {
		return "(timeline: no processors)\n"
	}
	width := tl.Width
	if width <= 0 {
		width = 100
	}
	from, to := tl.From, tl.To
	if to == 0 || to > tl.End {
		to = tl.End
	}
	if from >= to {
		return "(timeline: empty window)\n"
	}
	span := to - from
	var b strings.Builder
	fmt.Fprintf(&b, "timeline [%d, %d) — '#'=run 'm'=miss 'C'=commit '.'=gated\n", from, to)
	for p, segs := range tl.Segments {
		row := make([]byte, width)
		for i := 0; i < width; i++ {
			lo := from + sim.Time(int64(span)*int64(i)/int64(width))
			hi := from + sim.Time(int64(span)*int64(i+1)/int64(width))
			if hi <= lo {
				hi = lo + 1
			}
			row[i] = stateGlyphs[dominantState(segs, lo, hi)]
		}
		fmt.Fprintf(&b, "p%-3d |%s|\n", p, row)
	}
	return b.String()
}

// dominantState returns the state a processor's timeline segs spends the
// most time in within [lo, hi).
func dominantState(segs []stats.Segment, lo, hi sim.Time) stats.State {
	var acc [stats.NumStates]sim.Time
	for _, seg := range segs {
		a, z := seg.From, seg.To
		if a < lo {
			a = lo
		}
		if z > hi {
			z = hi
		}
		if z > a {
			acc[seg.State] += z - a
		}
	}
	best := stats.StateRun
	var bestT sim.Time = -1
	for s := 0; s < stats.NumStates; s++ {
		if acc[s] > bestT {
			bestT = acc[s]
			best = stats.State(s)
		}
	}
	return best
}
