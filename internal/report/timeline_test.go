package report

import (
	"strings"
	"testing"

	"repro/internal/stats"
)

// timelineFixture is a 2-processor run of 100 cycles: proc 0 misses over
// [25,50), proc 1 is gated over [50,100).
func timelineFixture() Timeline {
	return Timeline{End: 100, Segments: [][]stats.Segment{
		{{State: stats.StateRun, From: 0, To: 25}, {State: stats.StateMiss, From: 25, To: 50}, {State: stats.StateRun, From: 50, To: 100}},
		{{State: stats.StateRun, From: 0, To: 50}, {State: stats.StateGated, From: 50, To: 100}},
	}}
}

func TestTimelineRender(t *testing.T) {
	tl := timelineFixture()
	tl.Width = 20
	out := tl.Render()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 { // header + 2 procs
		t.Fatalf("timeline lines:\n%s", out)
	}
	if !strings.Contains(lines[1], "m") {
		t.Fatalf("proc 0 row missing miss glyph:\n%s", out)
	}
	if !strings.Contains(lines[2], ".") {
		t.Fatalf("proc 1 row missing gated glyph:\n%s", out)
	}
	// Proc 1 is run for the first half, gated for the second.
	row := lines[2][strings.Index(lines[2], "|")+1:]
	if row[0] != '#' || row[18] != '.' {
		t.Fatalf("proc 1 glyph placement wrong: %q", row)
	}
}

func TestTimelineWindow(t *testing.T) {
	tl := timelineFixture()
	tl.Width, tl.From, tl.To = 10, 50, 100
	out := tl.Render()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	row1 := lines[2]
	if strings.Contains(row1, "#") {
		t.Fatalf("windowed row should be fully gated:\n%s", out)
	}
}

func TestTimelineDegenerateInputs(t *testing.T) {
	if out := (Timeline{}).Render(); !strings.Contains(out, "no processors") {
		t.Fatalf("empty timeline output %q", out)
	}
	one := Timeline{Segments: make([][]stats.Segment, 1), End: 10, From: 5, To: 5}
	if out := one.Render(); !strings.Contains(out, "empty window") {
		t.Fatalf("empty window output %q", out)
	}
}

func TestTimelineDefaultWidth(t *testing.T) {
	out := timelineFixture().Render()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	body := lines[1][strings.Index(lines[1], "|")+1 : strings.LastIndex(lines[1], "|")]
	if len(body) != 100 {
		t.Fatalf("default width %d, want 100", len(body))
	}
}
