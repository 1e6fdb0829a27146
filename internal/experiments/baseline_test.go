package experiments

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stamp"
)

// paperGridRound is one round of the paper's Fig 4-7 grid as the
// end-to-end benchmark runs it: {genome, yada, intruder} x {4, 8, 16}p x
// W0 {2, 8, 32}, W0 innermost, so each (app, Np) baseline has two
// siblings right behind it.
func paperGridRound(seed uint64) []Cell {
	var cells []Cell
	for _, app := range stamp.PaperApps() {
		for _, np := range []int{4, 8, 16} {
			for _, w0 := range []sim.Time{2, 8, 32} {
				cells = append(cells, Cell{Index: len(cells), App: app, Processors: np, W0: w0, Seed: seed})
			}
		}
	}
	return cells
}

// axesCells crosses apps with the machine axes (bus, four banks, a 2x2
// mesh) and the energy axis (the t45 technology point on the bus) at two
// W0 points, all on one trace per app. Only the technology point and W0
// leave the ungated machine alone, so each app needs three baselines.
func axesCells(seed uint64, apps ...stamp.App) []Cell {
	var cells []Cell
	for _, app := range apps {
		for _, m := range []Cell{{}, {Banks: 4}, {Topology: "mesh:2x2"}, {Tech: "t45"}} {
			for _, w0 := range []sim.Time{2, 8} {
				cells = append(cells, Cell{Index: len(cells), App: app, Processors: 4, W0: w0,
					Banks: m.Banks, Topology: m.Topology, Tech: m.Tech, Seed: seed})
			}
		}
	}
	return cells
}

// siblingsApart is two W0 siblings of one genome cell with n cells of
// distinct trace keys between them.
func siblingsApart(n int) []Cell {
	cells := []Cell{{App: stamp.Genome, Processors: 4, W0: 2, Seed: 42}}
	for i := 0; i < n; i++ {
		cells = append(cells, Cell{Index: len(cells), App: stamp.Intruder, Processors: 2, W0: 2, Seed: uint64(100 + i)})
	}
	return append(cells, Cell{Index: len(cells), App: stamp.Genome, Processors: 4, W0: 32, Seed: 42})
}

// runEachCell runs every cell in its own RunCells call, from clients
// closed-loop goroutines that take the cells in order, as the end-to-end
// benchmark does, and returns the outcomes in cell order.
func runEachCell(t *testing.T, s *Session, cells []Cell, clients int) []*core.Outcome {
	t.Helper()
	outs := make([]*core.Outcome, len(cells))
	errs := make([]error, clients)
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(cells) {
					return
				}
				o, err := s.RunCells(context.Background(), cells[i:i+1])
				if err != nil {
					errs[k] = err
					return
				}
				outs[i] = o[0]
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	return outs
}

// TestSessionStatsCounts pins, as exact counts, which caches serve a
// session's cells: the ungated baselines it runs and shares, and the
// traces it generates. Every run of a side lands on a worker's System
// cache, so reuses and rebuilds sum to the side runs.
func TestSessionStatsCounts(t *testing.T) {
	paper := func(t *testing.T, s *Session) int {
		return len(runEachCell(t, s, paperGridRound(CellSeed(1, 0)), 2))
	}
	for _, tc := range []struct {
		name string
		opts Options
		run  func(t *testing.T, s *Session) int // returns the cell count
		want Stats
	}{
		{
			// The benchmark's paper-grid round: two clients, one cell per
			// call. Each (app, Np) runs its baseline once; its two W0
			// siblings share it.
			name: "paper-grid round",
			opts: Options{Seed: 1, Scale: 0.01, Workers: 2},
			run:  paper,
			want: Stats{TraceGenerations: 9, TraceHits: 18, BaselinesRun: 9, BaselinesShared: 18},
		},
		{
			// W0-major order puts siblings three cells apart; the call
			// holds their entries until its last cell with the key ends.
			name: "fig7 sweep at one worker",
			opts: Options{Seed: 42, Scale: 0.02, Processors: []int{8}, Workers: 1},
			run: func(t *testing.T, s *Session) int {
				if _, err := s.Fig7(context.Background()); err != nil {
					t.Fatal(err)
				}
				return len(fig7Cells(s.Options()))
			},
			want: Stats{TraceGenerations: 3, TraceHits: 12, BaselinesRun: 3, BaselinesShared: 12},
		},
		{
			// Separate calls hold nothing across each other: after
			// retainedEntries other trace keys the first entry, trace and
			// baseline both, is evicted before its sibling asks for it.
			name: "sibling beyond the window",
			opts: Options{Seed: 42, Scale: 0.02, Workers: 1},
			run: func(t *testing.T, s *Session) int {
				return len(runEachCell(t, s, siblingsApart(retainedEntries), 1))
			},
			want: Stats{TraceGenerations: retainedEntries + 2, BaselinesRun: retainedEntries + 2},
		},
		{
			// Within one call the sibling shares however far apart it is.
			name: "sibling beyond the window in one call",
			opts: Options{Seed: 42, Scale: 0.02, Workers: 1},
			run: func(t *testing.T, s *Session) int {
				cells := siblingsApart(retainedEntries)
				if _, err := s.RunCells(context.Background(), cells); err != nil {
					t.Fatal(err)
				}
				return len(cells)
			},
			want: Stats{TraceGenerations: retainedEntries + 1, TraceHits: 1, BaselinesRun: retainedEntries + 1, BaselinesShared: 1},
		},
		{
			// The key is the whole ungated machine: banks and topology
			// change it, the technology point and W0 do not.
			name: "machine and energy axes",
			opts: Options{Seed: 42, Scale: 0.02, Workers: 1},
			run: func(t *testing.T, s *Session) int {
				cells := axesCells(42, stamp.Genome)
				if _, err := s.RunCells(context.Background(), cells); err != nil {
					t.Fatal(err)
				}
				return len(cells)
			},
			want: Stats{TraceGenerations: 1, TraceHits: 7, BaselinesRun: 3, BaselinesShared: 5},
		},
		{
			// NoTraceCache turns the cross-cell cache off.
			name: "caches off",
			opts: Options{Seed: 1, Scale: 0.01, Workers: 2, NoTraceCache: true},
			run:  paper,
			want: Stats{TraceGenerations: 27, BaselinesRun: 27},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSession(tc.opts)
			defer s.Close()
			cells := tc.run(t, s)
			got := s.Stats()
			if sides := got.BaselinesRun + uint64(cells); got.SystemReuses+got.SystemRebuilds != sides {
				t.Errorf("System reuses %d + rebuilds %d, want %d side runs", got.SystemReuses, got.SystemRebuilds, sides)
			}
			if got.BaselinesWaited > got.BaselinesShared {
				t.Errorf("%d waits for %d shared baselines", got.BaselinesWaited, got.BaselinesShared)
			}
			// Which sibling waits depends on the schedule; the rest does not.
			got.BaselinesWaited, got.SystemReuses, got.SystemRebuilds = 0, 0, 0
			if got != tc.want {
				t.Errorf("stats %+v, want %+v", got, tc.want)
			}
		})
	}
}

// cellCSV renders one cell's outcome as its campaign CSV.
func cellCSV(t *testing.T, c Cell, o *core.Outcome) string {
	t.Helper()
	var b strings.Builder
	if err := (&Campaign{Cells: []Cell{c}, Outcomes: []*core.Outcome{o}}).WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// freshCSV runs c on a session with the cross-cell cache and System
// reuse off: the independent reference.
func freshCSV(t *testing.T, o Options, c Cell) string {
	t.Helper()
	o.NoTraceCache, o.NoSystemReuse, o.Workers = true, true, 1
	s := NewSession(o)
	defer s.Close()
	outs, err := s.RunCells(context.Background(), []Cell{c})
	if err != nil {
		t.Fatal(err)
	}
	return cellCSV(t, c, outs[0])
}

// cached reports how many entries the session cache keeps, how many
// baselines they hold, and whether c's baseline is among them.
func cached(t *testing.T, s *Session, c Cell) (entries, baselines int, has bool) {
	t.Helper()
	rs, err := s.cellSpec(c)
	if err != nil {
		t.Fatal(err)
	}
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	for _, e := range s.cache {
		baselines += len(e.baselines)
	}
	if e, ok := s.cache[s.opts.TraceKey(c)]; ok {
		_, has = e.baselines[rs.Config(false)]
	}
	return len(s.cache), baselines, has
}

// waitUntil polls cond until it holds, failing the test after a minute.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(time.Minute); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// TestSharedBaselineFailurePaths pins the shared baseline's failure
// rules: a claim canceled mid-baseline is not shared and its waiting
// sibling runs the baseline itself, a failing baseline is not cached, and
// Close drops the cache with its baselines while a cell still holding an
// entry keeps using it. CI runs it race-enabled ten times over.
func TestSharedBaselineFailurePaths(t *testing.T) {
	t.Run("claimer canceled mid-baseline", func(t *testing.T) {
		o := Options{Seed: 42, Scale: 0.2, Workers: 2}
		claimer := Cell{App: stamp.Yada, Processors: 16, W0: 2, Seed: 42}
		sibling := claimer
		sibling.W0 = 32
		want := freshCSV(t, o, sibling)

		s := NewSession(o)
		defer s.Close()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		claimErr := make(chan error, 1)
		go func() {
			_, err := s.RunCells(ctx, []Cell{claimer})
			claimErr <- err
		}()
		waitUntil(t, "the claimer runs its baseline", func() bool {
			_, _, has := cached(t, s, claimer)
			return has
		})
		type result struct {
			outs []*core.Outcome
			err  error
		}
		sib := make(chan result, 1)
		go func() {
			outs, err := s.RunCells(context.Background(), []Cell{sibling})
			sib <- result{outs, err}
		}()
		waitUntil(t, "the sibling finds the baseline running", func() bool {
			return s.Stats().BaselinesWaited == 1
		})
		cancel()
		if err := <-claimErr; !errors.Is(err, context.Canceled) {
			t.Fatalf("claimer: error %v, want context.Canceled", err)
		}
		r := <-sib
		if r.err != nil {
			t.Fatalf("sibling: %v", r.err)
		}
		if got := cellCSV(t, sibling, r.outs[0]); got != want {
			t.Fatalf("sibling after a canceled claim differs from a fresh run:\n--- fresh ---\n%s--- got ---\n%s", want, got)
		}
		if st := s.Stats(); st.BaselinesRun != 2 || st.BaselinesShared != 0 {
			t.Fatalf("stats %+v: want the canceled baseline and the sibling's own, none shared", st)
		}
	})

	t.Run("failing baseline not cached", func(t *testing.T) {
		// Three banks fail machine validation on both sides of the pair.
		bad := Cell{App: stamp.Genome, Processors: 4, W0: 2, Seed: 42, Banks: 3}
		sibling := bad
		sibling.W0 = 8
		s := NewSession(Options{Seed: 42, Scale: 0.02, Workers: 2})
		defer s.Close()
		if _, err := s.RunCells(context.Background(), []Cell{bad}); err == nil || !strings.Contains(err.Error(), "ungated run") {
			t.Fatalf("error %v, want the ungated run's", err)
		}
		if _, _, has := cached(t, s, bad); has {
			t.Fatal("a failed baseline stayed in the cache")
		}

		// Claim the baseline by hand, let the sibling find it running,
		// then fail the claim. The sibling must run the baseline itself
		// and report its own ungated error, although its gated side, run
		// first while it waited, failed too.
		e := s.holdEntries([]Cell{bad})[0]
		defer s.release(e)
		rs, err := s.cellSpec(bad)
		if err != nil {
			t.Fatal(err)
		}
		b, claimed := s.claim(e, rs.Config(false))
		if !claimed {
			t.Fatal("the failed baseline was still claimed")
		}
		sibErr := make(chan error, 1)
		go func() {
			_, err := s.RunCells(context.Background(), []Cell{sibling})
			sibErr <- err
		}()
		waitUntil(t, "the sibling finds the baseline running", func() bool {
			return s.Stats().BaselinesWaited == 1
		})
		s.publish(e, rs.Config(false), b, nil, errors.New("hand-made claim failed"))
		if err := <-sibErr; err == nil || !strings.Contains(err.Error(), "ungated run") ||
			strings.Contains(err.Error(), "hand-made") {
			t.Fatalf("sibling: error %v, want its own ungated run's", err)
		}
		if st := s.Stats(); st.BaselinesRun != 2 || st.BaselinesShared != 0 {
			t.Fatalf("stats %+v: want both cells' own baselines run, none shared", st)
		}
		if _, baselines, _ := cached(t, s, bad); baselines != 0 {
			t.Fatalf("cache keeps %d baselines after failures only", baselines)
		}
	})

	t.Run("Close drops retained baselines", func(t *testing.T) {
		o := Options{Seed: 42, Scale: 0.02, Workers: 2}
		c := Cell{App: stamp.Intruder, Processors: 4, W0: 2, Seed: 42}
		s := NewSession(o)
		if _, err := s.RunCells(context.Background(), []Cell{c}); err != nil {
			t.Fatal(err)
		}
		if _, baselines, has := cached(t, s, c); baselines != 1 || !has {
			t.Fatalf("cache keeps %d baselines (the cell's present %v), want the cell's", baselines, has)
		}
		// A straggler holding the entry across Close keeps using it.
		held := s.holdEntries([]Cell{c})[0]
		before, err := s.trace(c, held)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		after, err := s.trace(c, held)
		if err != nil {
			t.Fatal(err)
		}
		s.release(held)
		if after != before || s.Stats().TraceGenerations != 1 {
			t.Fatalf("a held entry after Close gave a new trace (same %v) after %d generations, want the held one after 1",
				after == before, s.Stats().TraceGenerations)
		}
		if entries, baselines, _ := cached(t, s, c); entries != 0 || baselines != 0 {
			t.Fatalf("after Close the cache keeps %d entries, %d baselines", entries, baselines)
		}
		// A cell that straggles in after Close runs inline and is not kept.
		outs, err := s.RunCells(context.Background(), []Cell{c})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := cellCSV(t, c, outs[0]), freshCSV(t, o, c); got != want {
			t.Fatalf("cell after Close differs from a fresh run:\n--- fresh ---\n%s--- got ---\n%s", want, got)
		}
		if entries, baselines, _ := cached(t, s, c); entries != 0 || baselines != 0 {
			t.Fatalf("after Close a cell left %d entries, %d baselines", entries, baselines)
		}
	})
}
