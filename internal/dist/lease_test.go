// The lease rule: a grant takes pending cells in canonical order, and
// past the request's Max the next ones that share the last cell's trace
// key, up to LeaseBatch, so a worker's session generates a trace and runs
// its ungated baseline once, as one process does.
package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// w0Sweep is the cells of a W0 sweep over opts' apps and processor
// counts with W0 innermost, as the benchmark's fleet-paper campaign runs
// them: the W0 siblings of an (app, Np) point, which share a trace, are
// adjacent.
func w0Sweep(opts experiments.Options, w0s []sim.Time) []experiments.Cell {
	var cells []experiments.Cell
	for _, app := range opts.Apps {
		for _, np := range opts.Processors {
			for _, w0 := range w0s {
				cells = append(cells, experiments.Cell{Index: len(cells), App: app, Processors: np, W0: w0,
					Contention: experiments.ContentionBase, Seed: opts.Seed})
			}
		}
	}
	return cells
}

// requestLease posts a lease request for max cells to c and returns the
// grant.
func requestLease(tb testing.TB, c *Coordinator, worker string, max int) LeaseResponse {
	tb.Helper()
	body, err := json.Marshal(LeaseRequest{Worker: worker, Max: max})
	if err != nil {
		tb.Fatal(err)
	}
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/lease", bytes.NewReader(body)))
	var grant LeaseResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &grant); rec.Code != http.StatusOK || err != nil {
		tb.Fatalf("lease request got %d: %s", rec.Code, rec.Body)
	}
	return grant
}

// granted is a grant's positions, in grant order.
func granted(grant LeaseResponse) []int {
	var out []int
	for _, lc := range grant.Cells {
		out = append(out, lc.Pos)
	}
	return out
}

// expire moves a lease's deadline into the past, so the next request
// reclaims its unfinished cells.
func expire(c *Coordinator, id uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.leases[id].deadline = time.Time{}
}

// TestLeaseDistinctKeysGrantCanonically: a campaign whose cells all have
// distinct trace keys gets the grants of the canonical-order rule, the
// first min(Max, LeaseBatch) pending cells in canonical order, for every
// pair in the table: while the cells last, after they run out, and when
// the first grant's cells are reclaimed.
func TestLeaseDistinctKeysGrantCanonically(t *testing.T) {
	opts := testOptions()
	cells := opts.Cells()
	for _, tc := range []struct{ max, batch int }{
		{0, 0}, {1, 1}, {2, 1}, {1, 8}, {2, 2}, {3, 2}, {3, 8}, {4, 3}, {4, 0}, {8, 8},
	} {
		t.Run(fmt.Sprintf("max=%d,batch=%d", tc.max, tc.batch), func(t *testing.T) {
			cfg := Config{LeaseBatch: tc.batch}
			c, err := NewCoordinator(opts, cells, cfg)
			if err != nil {
				t.Fatal(err)
			}
			n := cfg.leaseBatch()
			if tc.max > 0 && tc.max < n {
				n = tc.max
			}
			pending := make([]bool, len(cells))
			for i := range pending {
				pending[i] = true
			}
			canonical := func() []int {
				var out []int
				for pos, p := range pending {
					if p && len(out) < n {
						out = append(out, pos)
					}
				}
				return out
			}
			check := func(grant LeaseResponse, want []int) {
				t.Helper()
				if got := granted(grant); !slices.Equal(got, want) {
					t.Fatalf("granted %v, the canonical-order rule grants %v", got, want)
				}
				for _, pos := range want {
					pending[pos] = false
				}
			}
			var first LeaseResponse
			for k := 0; ; k++ {
				want := canonical()
				grant := requestLease(t, c, "w", tc.max)
				check(grant, want)
				if k == 0 {
					first = grant
				}
				if len(want) == 0 {
					break
				}
			}
			expire(c, first.LeaseID)
			for _, pos := range granted(first) {
				pending[pos] = true
			}
			check(requestLease(t, c, "w", tc.max), canonical())
		})
	}
}

// TestLeaseGrantsWholeTraceGroups: the adjacent cells that share a trace
// key are granted together. A W0 sweep with groups of 3 and Max 2 gets
// one whole group per grant; groups of 5 under LeaseBatch 4 are cut at
// 4; a grant past Max stops at the next key; a reclaimed group is
// re-leased whole, ahead of the groups after it.
func TestLeaseGrantsWholeTraceGroups(t *testing.T) {
	opts := testOptions() // 2 apps x 2 processor counts: 4 trace keys
	for _, tc := range []struct {
		name   string
		w0s    []sim.Time
		max    int
		batch  int
		grants [][]int
	}{
		{"groups of 3, max 2", []sim.Time{2, 8, 32}, 2, 0,
			[][]int{{0, 1, 2}, {3, 4, 5}, {6, 7, 8}, {9, 10, 11}, nil}},
		{"groups of 5, max 2, batch 4", experiments.Fig7W0Values, 2, 4,
			[][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9}, {10, 11, 12, 13}, {14, 15, 16, 17}, {18, 19}, nil}},
		{"groups of 5, max 8, batch 4", experiments.Fig7W0Values, 8, 4,
			[][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9, 10, 11}, {12, 13, 14, 15}, {16, 17, 18, 19}, nil}},
		{"groups of 3, max 4, batch 8", []sim.Time{2, 8, 32}, 4, 8,
			[][]int{{0, 1, 2, 3, 4, 5}, {6, 7, 8, 9, 10, 11}, nil}},
		{"groups of 3, max 4, batch 5", []sim.Time{2, 8, 32}, 4, 5,
			[][]int{{0, 1, 2, 3, 4}, {5, 6, 7, 8}, {9, 10, 11}, nil}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewCoordinator(opts, w0Sweep(opts, tc.w0s), Config{LeaseBatch: tc.batch})
			if err != nil {
				t.Fatal(err)
			}
			for k, want := range tc.grants {
				if got := granted(requestLease(t, c, "w", tc.max)); !slices.Equal(got, want) {
					t.Fatalf("grant %d is %v, want %v", k+1, got, want)
				}
			}
		})
	}

	t.Run("a reclaimed group is re-leased whole", func(t *testing.T) {
		c, err := NewCoordinator(opts, w0Sweep(opts, []sim.Time{2, 8, 32}), Config{})
		if err != nil {
			t.Fatal(err)
		}
		first := requestLease(t, c, "w", 2)
		if got := granted(requestLease(t, c, "w", 2)); !slices.Equal(got, []int{3, 4, 5}) {
			t.Fatalf("second grant is %v, want [3 4 5]", got)
		}
		expire(c, first.LeaseID)
		if got := granted(requestLease(t, c, "w", 2)); !slices.Equal(got, []int{0, 1, 2}) {
			t.Fatalf("the grant after the first lease expired is %v, want its whole group [0 1 2]", got)
		}
		if got := granted(requestLease(t, c, "w", 2)); !slices.Equal(got, []int{6, 7, 8}) {
			t.Fatalf("the next grant is %v, want [6 7 8]", got)
		}
	})
}

// TestFleetW0SweepSimulatesEachTraceOnce: two single-goroutine workers,
// each asking for 2 cells, run a W0 sweep whose 5 siblings per trace are
// adjacent. Between them they generate each trace and run each ungated
// baseline exactly as often as one in-process session does, and the
// merged CSV is the session's byte for byte.
func TestFleetW0SweepSimulatesEachTraceOnce(t *testing.T) {
	opts := testOptions()
	cells := w0Sweep(opts, experiments.Fig7W0Values)
	ctx := context.Background()

	local := experiments.NewSession(opts)
	defer local.Close()
	outs, err := local.RunCells(ctx, cells)
	if err != nil {
		t.Fatal(err)
	}
	want := campaignCSV(t, &experiments.Campaign{Options: opts, Cells: cells, Outcomes: outs})
	ls := local.Stats()

	coord, err := NewCoordinator(opts, cells, Config{
		RetryDelay: 10 * time.Millisecond,
		DrainGrace: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, serveCh := startCoordinator(t, coord)
	var wg sync.WaitGroup
	stats := make([]WorkerStats, 2)
	errs := make([]error, 2)
	for k := range stats {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[k], errs[k] = Work(ctx, addr, WorkerOptions{Name: fmt.Sprintf("w%d", k), Workers: 1})
		}()
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", k, err)
		}
	}
	if got := campaignCSV(t, waitServe(t, serveCh)); got != want {
		t.Errorf("fleet CSV diverges from the in-process session's:\nwant:\n%s\ngot:\n%s", want, got)
	}
	var generated, baselines uint64
	for _, st := range stats {
		generated += st.TraceGenerations
		baselines += st.BaselinesRun
	}
	if generated != ls.TraceGenerations || baselines != ls.BaselinesRun {
		t.Errorf("the workers generated %d traces and ran %d baselines, one session %d and %d (workers: %+v, coordinator: %+v)",
			generated, baselines, ls.TraceGenerations, ls.BaselinesRun, stats, coord.Stats())
	}
}

// checkGrant checks one grant against the lease rule, given the cells
// that were pending just before it: it holds at most LeaseBatch cells,
// each of them pending before, none twice; they are the first pending
// cells in canonical order; and the grant leaves a trace's cells pending
// only when it holds LeaseBatch cells. Where the cells of each trace are
// adjacent, that last check says a trace group is split only by the
// LeaseBatch cut.
func checkGrant(tb testing.TB, c *Coordinator, pending []bool, grant LeaseResponse) {
	tb.Helper()
	batch := c.cfg.leaseBatch()
	positions := granted(grant)
	if len(positions) > batch {
		tb.Fatalf("grant %v holds more than LeaseBatch %d cells", positions, batch)
	}
	seen := make(map[int]bool)
	keys := make(map[experiments.TraceKey]bool)
	for _, pos := range positions {
		if pos < 0 || pos >= len(pending) || !pending[pos] {
			tb.Fatalf("grant %v holds position %d, which was not pending", positions, pos)
		}
		if seen[pos] {
			tb.Fatalf("grant %v holds position %d twice", positions, pos)
		}
		seen[pos] = true
		keys[c.opts.TraceKey(c.cells[pos])] = true
	}
	var first []int
	for pos, p := range pending {
		if p && len(first) < len(positions) {
			first = append(first, pos)
		}
	}
	if !slices.Equal(positions, first) {
		tb.Fatalf("grant %v is not the first pending cells in canonical order, %v", positions, first)
	}
	for pos, p := range pending {
		if p && !seen[pos] && keys[c.opts.TraceKey(c.cells[pos])] && len(positions) < batch {
			tb.Fatalf("grant %v of fewer than LeaseBatch %d cells leaves position %d of one of its traces pending", positions, batch, pos)
		}
	}
}

// pendingSnapshot is which cells of c are pending, once the leases whose
// deadline has passed are reclaimed, as the next request will find them.
func pendingSnapshot(c *Coordinator) []bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reclaimExpired(time.Now())
	out := make([]bool, len(c.phase))
	for pos, ph := range c.phase {
		out[pos] = ph == cellPending
	}
	return out
}

// fuzzSweep computes once the 20 cells of a W0 sweep over testOptions
// and Fig 7's W0 values (4 trace keys, 5 cells each at positions 5k to
// 5k+4) and returns them with their records, by position.
var fuzzSweep = sync.OnceValues(func() ([]experiments.Cell, []CellReturn) {
	opts := testOptions()
	cells := w0Sweep(opts, experiments.Fig7W0Values)
	session := experiments.NewSession(opts)
	defer session.Close()
	leased := make([]LeasedCell, len(cells))
	for pos, cell := range cells {
		leased[pos] = LeasedCell{Pos: pos, Cell: cell}
	}
	records := make([]CellReturn, len(cells))
	for _, r := range runLease(context.Background(), session, leased) {
		records[r.Pos] = r
	}
	return cells, records
})

// FuzzCoordinatorLeaseGroups drives a coordinator whose cells share trace
// keys through a sequence of lease requests, returns and expiries, and
// checks every grant against the lease rule (checkGrant), and that a
// request finds no cells only when none is pending. Each groups byte
// appends the cells of one trace key of fuzzSweep, adjacent: key b%4
// (a key already used is skipped) at the W0 values picked by the 5-bit
// mask b/4%31+1, so the campaign has up to 4 groups of 1 to 5 cells in
// any order. batch picks LeaseBatch from 1 to 8. The ops spell, per
// byte, a lease request for op/4 % 10 cells (0 asks for LeaseBatch), the
// return of the oldest live lease's first op/4 % 4 + 1 cells, or the
// expiry of the oldest live lease.
func FuzzCoordinatorLeaseGroups(f *testing.F) {
	f.Add([]byte{24, 25, 26, 27}, uint8(7), []byte{8, 8, 8, 8, 8})                 // groups of 3, max 2, batch 8: one group per grant
	f.Add([]byte{24, 25, 26, 27}, uint8(3), []byte{36, 4, 6, 7, 4, 4, 7, 4, 36})   // groups of 3, batch 4
	f.Add([]byte{120, 121, 122, 123}, uint8(1), []byte{0, 3, 0, 6, 0, 0})          // groups of 5, batch 2 cuts every group
	f.Add([]byte{1, 122, 8, 59}, uint8(4), []byte{20, 2, 3, 20, 14, 20, 20, 8, 8}) // groups of 1, 5, 2 and 4, batch 5
	f.Fuzz(func(t *testing.T, groups []byte, batch uint8, ops []byte) {
		sweep, records := fuzzSweep()
		if len(records) != len(sweep) || slices.ContainsFunc(records, func(r CellReturn) bool { return r.Err != "" }) {
			t.Fatal("computing the sweep's records failed")
		}
		w0s := len(experiments.Fig7W0Values)
		var cells []experiments.Cell
		var from []int // the fuzzSweep position of each cell
		used := make(map[int]bool)
		for _, b := range groups {
			key, mask := int(b)%4, int(b)/4%31+1
			if used[key] {
				continue
			}
			used[key] = true
			for i := range w0s {
				if mask&(1<<i) != 0 {
					cell := sweep[key*w0s+i]
					cell.Index = len(cells)
					cells = append(cells, cell)
					from = append(from, key*w0s+i)
				}
			}
		}
		if len(cells) == 0 {
			return
		}
		c, err := NewCoordinator(testOptions(), cells, Config{LeaseBatch: int(batch%8) + 1, LeaseTTL: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		var live []LeaseResponse // granted leases, oldest first
		for _, op := range ops {
			arg := int(op / 4)
			switch op % 4 {
			case 0, 1:
				pending := pendingSnapshot(c)
				grant := requestLease(t, c, "w", arg%10)
				checkGrant(t, c, pending, grant)
				if len(grant.Cells) == 0 && !grant.Done && slices.Contains(pending, true) {
					t.Fatalf("a request found no cells with %v pending", pending)
				}
				if len(grant.Cells) > 0 {
					live = append(live, grant)
				}
			case 2:
				if len(live) == 0 {
					continue
				}
				l := live[0]
				n := min(arg%4+1, len(l.Cells))
				var results []CellReturn
				for _, lc := range l.Cells[:n] {
					r := records[from[lc.Pos]]
					r.Pos = lc.Pos
					results = append(results, r)
				}
				body, err := json.Marshal(ReturnRequest{LeaseID: l.LeaseID, Worker: "w", Results: results})
				if err != nil {
					t.Fatal(err)
				}
				if code := serveReturn(c, body); code != http.StatusOK {
					t.Fatalf("return of lease %d got %d", l.LeaseID, code)
				}
				if l.Cells = l.Cells[n:]; len(l.Cells) == 0 {
					live = live[1:]
				} else {
					live[0] = l
				}
			case 3:
				if len(live) == 0 {
					continue
				}
				expire(c, live[0].LeaseID)
				live = live[1:]
			}
		}
	})
}
