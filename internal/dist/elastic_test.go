// Elastic-fleet hardening tests: lease heartbeats keeping slow cells
// alive, straggler re-lease (work stealing) with first-return-wins
// dedup, workers surviving a flaky coordinator, atomic return
// validation, and the chaos smoke the CI "Fleet chaos smoke" lane runs
// race-enabled — random worker death, duplicate returns and a flaky
// transport, with byte-identity and a well-formed /v1/status asserted
// throughout.
package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/stamp"
	"repro/internal/stats"
)

// chaosOptions is a slightly wider campaign (6 cells) so the chaos
// smoke has enough work for expiry, stealing and duplicates to overlap.
func chaosOptions() experiments.Options {
	return experiments.Options{
		Seed:       42,
		Scale:      0.02,
		Workers:    2,
		Apps:       []stamp.App{stamp.Intruder, stamp.Genome},
		Processors: []int{2, 4, 8},
	}
}

// TestFleetRenewalOutlivesLeaseTTL pins the heartbeat contract: a
// worker renewing its lease holds a cell far past 3×LeaseTTL — with
// another worker's lease requests reclaiming expired leases the whole
// time — and the cell is neither reclaimed nor re-run elsewhere; the
// eventual return is merged as the first copy, not a duplicate.
func TestFleetRenewalOutlivesLeaseTTL(t *testing.T) {
	opts := testOptions()
	want := singleProcessCSV(t, opts)
	cells := opts.Cells()
	const ttl = 200 * time.Millisecond

	coord, err := NewCoordinator(opts, cells, Config{
		LeaseTTL:   ttl,
		LeaseBatch: 1,
		RetryDelay: 20 * time.Millisecond,
		DrainGrace: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, serveCh := startCoordinator(t, coord)
	ctx := context.Background()

	// The slow worker: leases one cell, computes it immediately, but
	// holds the return far past the TTL, renewing the whole time.
	var grant LeaseResponse
	if err := postJSON(ctx, http.DefaultClient, "http://"+addr+"/v1/lease",
		LeaseRequest{Worker: "slow", Max: 1}, &grant); err != nil {
		t.Fatal(err)
	}
	if len(grant.Cells) != 1 {
		t.Fatalf("leased %d cells, want 1", len(grant.Cells))
	}
	session := experiments.NewSession(opts)
	defer session.Close()
	late := runLease(ctx, session, grant.Cells)

	// A healthy worker completes every other cell meanwhile, then polls
	// until the slow cell lands.
	healthyCh := make(chan serveResult, 1)
	go func() {
		st, err := Work(ctx, addr, WorkerOptions{Name: "healthy", Workers: 2})
		_ = st
		healthyCh <- serveResult{nil, err}
	}()

	// Renew every 60ms for 3.5×TTL. The healthy worker polls for work
	// every 20ms, and each poll reclaims expired leases, so one missed
	// renewal window would reclaim the lease almost instantly.
	for elapsed := time.Duration(0); elapsed < 3*ttl+ttl/2; elapsed += 60 * time.Millisecond {
		time.Sleep(60 * time.Millisecond)
		var ack RenewResponse
		if err := postJSON(ctx, http.DefaultClient, "http://"+addr+"/v1/renew",
			RenewRequest{LeaseID: grant.LeaseID, Worker: "slow"}, &ack); err != nil {
			t.Fatal(err)
		}
		if ack.Expired {
			t.Fatalf("lease expired after %v despite continuous renewal (TTL %v)", elapsed, ttl)
		}
		if ack.DeadlineMS <= 0 {
			t.Fatalf("renewal granted no deadline: %+v", ack)
		}
	}

	var ack ReturnResponse
	if err := postJSON(ctx, http.DefaultClient, "http://"+addr+"/v1/return",
		ReturnRequest{LeaseID: grant.LeaseID, Worker: "slow", Results: late}, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Accepted != 1 || ack.Duplicates != 0 {
		t.Errorf("slow return accepted=%d duplicates=%d, want 1/0 — the renewed cell was re-run elsewhere",
			ack.Accepted, ack.Duplicates)
	}
	if res := <-healthyCh; res.err != nil {
		t.Fatalf("healthy worker: %v", res.err)
	}

	campaign := waitServe(t, serveCh)
	if got := campaignCSV(t, campaign); got != want {
		t.Errorf("CSV with renewal diverges:\nwant:\n%s\ngot:\n%s", want, got)
	}
	cs := coord.Stats()
	if cs.Expired != 0 {
		t.Errorf("a renewed lease expired: %+v", cs)
	}
	if cs.Renewals < 5 {
		t.Errorf("coordinator counted %d renewals, want at least the slow worker's 5+", cs.Renewals)
	}
}

// TestFleetExpiryVisibleWithoutLeaseRequests pins what a status reader
// sees of a dead worker when nobody else asks for work: once the lease's
// deadline passes, Status and /metrics report the cell pending and the
// lease expired, and a renewal of that lease answers expired.
func TestFleetExpiryVisibleWithoutLeaseRequests(t *testing.T) {
	opts := testOptions()
	cells := opts.Cells()
	const ttl = 100 * time.Millisecond

	coord, err := NewCoordinator(opts, cells, Config{
		LeaseTTL:   ttl,
		RetryDelay: 10 * time.Millisecond,
		DrainGrace: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, serveCh := startCoordinator(t, coord)
	ctx := context.Background()

	var grant LeaseResponse
	if err := postJSON(ctx, http.DefaultClient, "http://"+addr+"/v1/lease",
		LeaseRequest{Worker: "dead", Max: 1}, &grant); err != nil {
		t.Fatal(err)
	}
	if len(grant.Cells) != 1 {
		t.Fatalf("leased %d cells, want 1", len(grant.Cells))
	}
	time.Sleep(3 * ttl)

	if st := coord.Status(); st.Pending != len(cells) || st.Leased != 0 || st.Expired != 1 || st.ActiveLeases != 0 {
		t.Errorf("status 3×TTL after a dead worker's lease: %+v, want all %d cells pending, 1 expired, 0 active leases", st, len(cells))
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(metrics), "\nclockgate_leases_expired_total 1\n") {
		t.Errorf("/metrics does not count the expired lease:\n%s", metrics)
	}
	var ack RenewResponse
	if err := postJSON(ctx, http.DefaultClient, "http://"+addr+"/v1/renew",
		RenewRequest{LeaseID: grant.LeaseID, Worker: "dead"}, &ack); err != nil {
		t.Fatal(err)
	}
	if !ack.Expired {
		t.Errorf("renewing the expired lease answered %+v, want expired", ack)
	}

	if _, err := Work(ctx, addr, WorkerOptions{Name: "finisher", Workers: 2}); err != nil {
		t.Fatalf("finisher worker: %v", err)
	}
	waitServe(t, serveCh)
}

// TestFleetStealFirstReturnWins pins the straggler re-lease rule: with
// no pending cells and a small remainder, an idle worker is granted the
// oldest in-flight cell; then the victim's late copy and the stolen
// copy race the return path in both orders — whichever lands first is
// merged, the other is a duplicate, and the output is byte-identical
// either way.
func TestFleetStealFirstReturnWins(t *testing.T) {
	for _, lateFirst := range []bool{false, true} {
		name := "stolen-copy-first"
		if lateFirst {
			name = "late-copy-first"
		}
		t.Run(name, func(t *testing.T) {
			opts := testOptions()
			want := singleProcessCSV(t, opts)
			cells := opts.Cells()

			coord, err := NewCoordinator(opts, cells, Config{
				LeaseTTL:       30 * time.Second,
				LeaseBatch:     8,
				RetryDelay:     10 * time.Millisecond,
				DrainGrace:     300 * time.Millisecond,
				StealThreshold: len(cells),
				StealMinAge:    -1, // steal immediately; production defaults to TTL/2
			})
			if err != nil {
				t.Fatal(err)
			}
			addr, serveCh := startCoordinator(t, coord)
			ctx := context.Background()

			// The victim leases one cell and computes it, but stalls
			// before returning.
			var victim LeaseResponse
			if err := postJSON(ctx, http.DefaultClient, "http://"+addr+"/v1/lease",
				LeaseRequest{Worker: "victim", Max: 1}, &victim); err != nil {
				t.Fatal(err)
			}
			if len(victim.Cells) != 1 {
				t.Fatalf("victim leased %d cells, want 1", len(victim.Cells))
			}
			session := experiments.NewSession(opts)
			defer session.Close()
			late := runLease(ctx, session, victim.Cells)

			// The thief drains the pending pool…
			var rest LeaseResponse
			if err := postJSON(ctx, http.DefaultClient, "http://"+addr+"/v1/lease",
				LeaseRequest{Worker: "thief", Max: 8}, &rest); err != nil {
				t.Fatal(err)
			}
			if len(rest.Cells) != len(cells)-1 {
				t.Fatalf("thief leased %d cells, want %d", len(rest.Cells), len(cells)-1)
			}
			// …and its next request steals the victim's in-flight cell.
			var stolen LeaseResponse
			if err := postJSON(ctx, http.DefaultClient, "http://"+addr+"/v1/lease",
				LeaseRequest{Worker: "thief", Max: 8}, &stolen); err != nil {
				t.Fatal(err)
			}
			if len(stolen.Cells) != 1 || stolen.Cells[0].Pos != victim.Cells[0].Pos {
				t.Fatalf("steal granted %+v, want the victim's cell at pos %d", stolen.Cells, victim.Cells[0].Pos)
			}
			if cs := coord.Stats(); cs.Steals != 1 {
				t.Fatalf("coordinator counted %d steals, want 1 (%+v)", cs.Steals, cs)
			}
			stolenRes := runLease(ctx, session, stolen.Cells)

			// Race the two copies of the same cell in the chosen order.
			firstRes, firstLease := stolenRes, stolen.LeaseID
			secondRes, secondLease := late, victim.LeaseID
			if lateFirst {
				firstRes, firstLease, secondRes, secondLease = late, victim.LeaseID, stolenRes, stolen.LeaseID
			}
			var ack ReturnResponse
			if err := postJSON(ctx, http.DefaultClient, "http://"+addr+"/v1/return",
				ReturnRequest{LeaseID: firstLease, Worker: "first", Results: firstRes}, &ack); err != nil {
				t.Fatal(err)
			}
			if ack.Accepted != 1 || ack.Duplicates != 0 {
				t.Errorf("first copy: accepted=%d duplicates=%d, want 1/0", ack.Accepted, ack.Duplicates)
			}
			if err := postJSON(ctx, http.DefaultClient, "http://"+addr+"/v1/return",
				ReturnRequest{LeaseID: secondLease, Worker: "second", Results: secondRes}, &ack); err != nil {
				t.Fatal(err)
			}
			if ack.Accepted != 0 || ack.Duplicates != 1 {
				t.Errorf("second copy: accepted=%d duplicates=%d, want 0/1", ack.Accepted, ack.Duplicates)
			}

			// The thief finishes the rest; the campaign must be whole.
			restRes := runLease(ctx, session, rest.Cells)
			if err := postJSON(ctx, http.DefaultClient, "http://"+addr+"/v1/return",
				ReturnRequest{LeaseID: rest.LeaseID, Worker: "thief", Results: restRes}, &ack); err != nil {
				t.Fatal(err)
			}
			campaign := waitServe(t, serveCh)
			if got := campaignCSV(t, campaign); got != want {
				t.Errorf("CSV after steal race diverges:\nwant:\n%s\ngot:\n%s", want, got)
			}
		})
	}
}

// TestFleetWorkerSurvivesFlakyCoordinator injects the satellite bug's
// fault: every other request to the coordinator fails with a 5xx. The
// worker must complete the whole campaign through bounded retries with
// zero worker exits, and the output must stay byte-identical.
func TestFleetWorkerSurvivesFlakyCoordinator(t *testing.T) {
	opts := testOptions()
	want := singleProcessCSV(t, opts)

	coord, err := NewCoordinator(opts, opts.Cells(), Config{
		LeaseTTL:   30 * time.Second,
		LeaseBatch: 2,
		RetryDelay: 10 * time.Millisecond,
		DrainGrace: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, serveCh := startCoordinator(t, coord)

	// The flaky front: the same coordinator, behind a handler that
	// fails every other request (50% transient failures).
	handler := coord.Handler()
	var n atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)%2 == 1 {
			http.Error(w, "injected transient failure", http.StatusBadGateway)
			return
		}
		handler.ServeHTTP(w, r)
	}))
	defer flaky.Close()

	stats, err := Work(context.Background(), flaky.URL, WorkerOptions{
		Name:      "tough",
		Workers:   2,
		RetryBase: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("worker exited under 50%% transient failures: %v", err)
	}
	if stats.Retries == 0 {
		t.Error("worker reports zero retries behind a transport failing every other request")
	}
	if stats.Cells != len(opts.Cells()) {
		t.Errorf("worker completed %d cells, want %d", stats.Cells, len(opts.Cells()))
	}
	campaign := waitServe(t, serveCh)
	if got := campaignCSV(t, campaign); got != want {
		t.Errorf("CSV through flaky transport diverges:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestFleetReturnAtomicOnInvalidBatch pins the return-atomicity fix: a
// return carrying a valid record at index 0 and an invalid one at index
// 1 must be rejected as a whole — nothing merged, journaled or counted
// — and the identical valid return must then succeed.
func TestFleetReturnAtomicOnInvalidBatch(t *testing.T) {
	opts := testOptions()
	want := singleProcessCSV(t, opts)
	cells := opts.Cells()

	coord, err := NewCoordinator(opts, cells, Config{
		LeaseTTL:   30 * time.Second,
		LeaseBatch: 2,
		RetryDelay: 10 * time.Millisecond,
		DrainGrace: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, serveCh := startCoordinator(t, coord)
	ctx := context.Background()

	var grant LeaseResponse
	if err := postJSON(ctx, http.DefaultClient, "http://"+addr+"/v1/lease",
		LeaseRequest{Worker: "clumsy", Max: 2}, &grant); err != nil {
		t.Fatal(err)
	}
	if len(grant.Cells) != 2 {
		t.Fatalf("leased %d cells, want 2", len(grant.Cells))
	}
	session := experiments.NewSession(opts)
	defer session.Close()
	results := runLease(ctx, session, grant.Cells)
	if len(results) != 2 {
		t.Fatalf("computed %d results, want 2", len(results))
	}

	post := func(results []CellReturn) *http.Response {
		t.Helper()
		body, err := json.Marshal(ReturnRequest{LeaseID: grant.LeaseID, Worker: "clumsy", Results: results})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post("http://"+addr+"/v1/return", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Out-of-range position at index 1: whole batch rejected with 400.
	bad := []CellReturn{results[0], results[1]}
	bad[1].Pos = len(cells) + 7
	resp := post(bad)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("out-of-range batch got %s, want 400", resp.Status)
	}
	if cs := coord.Stats(); cs.Returned != 0 {
		t.Errorf("partial merge after rejected batch: %+v", cs)
	}

	// Foreign cell at index 1 (claims another position's slot): whole
	// batch rejected with 409, still nothing merged.
	bad = []CellReturn{results[0], results[1]}
	bad[1].Pos = (bad[1].Pos + 1) % len(cells)
	if bad[1].Pos == bad[0].Pos {
		bad[1].Pos = (bad[1].Pos + 1) % len(cells)
	}
	resp = post(bad)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("foreign-record batch got %s, want 409", resp.Status)
	}
	if cs := coord.Stats(); cs.Returned != 0 {
		t.Errorf("partial merge after rejected batch: %+v", cs)
	}

	// A residency row at index 1 summing to Cycles+1: the record does not
	// partition its run, so the whole batch is rejected with 400.
	bad = []CellReturn{results[0], results[1]}
	bad[1].Record.Gated.Residency = slices.Clone(bad[1].Record.Gated.Residency)
	bad[1].Record.Gated.Residency[0][stats.StateRun]++
	resp = post(bad)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("residency-mismatch batch got %s, want 400", resp.Status)
	}
	if cs := coord.Stats(); cs.Returned != 0 {
		t.Errorf("partial merge after rejected batch: %+v", cs)
	}

	// The identical valid return now merges both cells.
	resp = post(results)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid retry got %s, want 200", resp.Status)
	}
	if cs := coord.Stats(); cs.Returned != 2 {
		t.Errorf("valid retry merged %d cells, want 2 (%+v)", cs.Returned, cs)
	}

	if _, err := Work(ctx, addr, WorkerOptions{Name: "finisher", Workers: 2}); err != nil {
		t.Fatalf("finisher worker: %v", err)
	}
	campaign := waitServe(t, serveCh)
	if got := campaignCSV(t, campaign); got != want {
		t.Errorf("CSV after rejected batches diverges:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// chaosTransport injects transport failures on the worker side: every
// second request fails before it is sent (a refused connection), and
// every fifth /v1/return is delivered but its response dropped — the
// worker retries a return the coordinator already merged, forcing the
// duplicate-return path.
type chaosTransport struct {
	base http.RoundTripper
	n    atomic.Int64
}

func (c *chaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	n := c.n.Add(1)
	if n%5 == 0 && strings.HasSuffix(req.URL.Path, "/v1/return") {
		resp, err := c.base.RoundTrip(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		return nil, fmt.Errorf("chaos: response dropped after delivery")
	}
	if n%2 == 0 {
		return nil, fmt.Errorf("chaos: connection refused")
	}
	return c.base.RoundTrip(req)
}

// TestFleetChaosSmoke is the CI chaos lane: a race-enabled loopback
// campaign with a worker killed mid-lease, a flaky transport dropping
// and losing requests, stealing enabled, and an injected duplicate
// return — asserting byte-identity, zero surviving-worker exits, and a
// /v1/status whose phase counts sum to the cell total on every poll.
func TestFleetChaosSmoke(t *testing.T) {
	opts := chaosOptions()
	want := singleProcessCSV(t, opts)
	cells := opts.Cells()

	coord, err := NewCoordinator(opts, cells, Config{
		LeaseTTL:       400 * time.Millisecond,
		LeaseBatch:     1,
		RetryDelay:     10 * time.Millisecond,
		DrainGrace:     800 * time.Millisecond,
		StealThreshold: 2,
		StealMinAge:    100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, serveCh := startCoordinator(t, coord)
	ctx := context.Background()

	if st := coord.Status(); st.Pending != len(cells) || st.Done != 0 || st.Leased != 0 {
		t.Fatalf("fresh status %+v, want all %d cells pending", st, len(cells))
	}

	// The doomed worker: takes a cell, computes it, and is never heard
	// from again until after the campaign — its cell must be healed by
	// expiry or by stealing, and its eventual late return discarded as a
	// duplicate.
	var doomed LeaseResponse
	if err := postJSON(ctx, http.DefaultClient, "http://"+addr+"/v1/lease",
		LeaseRequest{Worker: "doomed", Max: 1}, &doomed); err != nil {
		t.Fatal(err)
	}
	if len(doomed.Cells) != 1 {
		t.Fatalf("doomed worker leased %d cells, want 1", len(doomed.Cells))
	}
	session := experiments.NewSession(opts)
	defer session.Close()
	doomedRes := runLease(ctx, session, doomed.Cells)

	// Status poller: every snapshot must be internally consistent no
	// matter what the chaos is doing to the lease state machine.
	stopPoll := make(chan struct{})
	pollErr := make(chan error, 1)
	var polls atomic.Int64
	go func() {
		for {
			select {
			case <-stopPoll:
				return
			case <-time.After(15 * time.Millisecond):
			}
			st, err := FetchStatus(ctx, nil, addr)
			if err != nil {
				continue // the server may be mid-drain; transport errors are not the contract
			}
			polls.Add(1)
			if st.Pending+st.Leased+st.Done != st.Cells || st.Cells != len(cells) {
				select {
				case pollErr <- fmt.Errorf("inconsistent status: pending %d + leased %d + done %d != cells %d",
					st.Pending, st.Leased, st.Done, st.Cells):
				default:
				}
				return
			}
		}
	}()

	// Two workers race for the remaining cells: one behind the chaos
	// transport, one healthy. Both must finish with zero exits.
	var wg sync.WaitGroup
	workerErrs := make([]error, 2)
	chaosClient := &http.Client{
		Timeout:   10 * time.Second,
		Transport: &chaosTransport{base: http.DefaultTransport},
	}
	for i := range workerErrs {
		client := (*http.Client)(nil)
		if i == 0 {
			client = chaosClient
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, workerErrs[i] = Work(ctx, addr, WorkerOptions{
				Name:      fmt.Sprintf("chaos-%d", i),
				Workers:   2,
				Client:    client,
				RetryBase: 5 * time.Millisecond,
			})
		}()
	}
	wg.Wait()
	close(stopPoll)
	for i, err := range workerErrs {
		if err != nil {
			t.Errorf("worker %d exited: %v", i, err)
		}
	}
	select {
	case err := <-pollErr:
		t.Error(err)
	default:
	}
	if polls.Load() == 0 {
		t.Error("status poller never completed a poll")
	}

	// The doomed worker's late return lands inside the drain window:
	// its cell was re-run elsewhere, so it must be a pure duplicate.
	var ack ReturnResponse
	if err := postJSON(ctx, http.DefaultClient, "http://"+addr+"/v1/return",
		ReturnRequest{LeaseID: doomed.LeaseID, Worker: "doomed", Results: doomedRes}, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Accepted != 0 || ack.Duplicates != 1 {
		t.Errorf("doomed late return: accepted=%d duplicates=%d, want 0/1", ack.Accepted, ack.Duplicates)
	}

	// A well-formed final control-plane snapshot and metrics export.
	st := coord.Status()
	if !st.Completed || st.Done != len(cells) || st.Pending != 0 || st.Leased != 0 {
		t.Errorf("final status not settled: %+v", st)
	}
	if st.Expired+st.Steals == 0 {
		t.Errorf("doomed lease healed by neither expiry nor steal: %+v", st)
	}
	if st.Duplicates == 0 {
		t.Errorf("no duplicate was recorded: %+v", st)
	}
	if st.CellsPerSec <= 0 {
		t.Errorf("throughput not reported: %+v", st)
	}
	metrics := httptest.NewRecorder()
	coord.Handler().ServeHTTP(metrics, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := metrics.Body.String()
	for _, name := range []string{"clockgate_cells_total", "clockgate_cells_done", "clockgate_leases_renewed_total", "clockgate_returns_duplicate_total"} {
		if !strings.Contains(body, name) {
			t.Errorf("/metrics missing %s:\n%s", name, body)
		}
	}

	campaign := waitServe(t, serveCh)
	if got := campaignCSV(t, campaign); got != want {
		t.Errorf("chaos campaign CSV diverges:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestFleetPartialReturnsByteIdentity pins the coordinator's side of
// partial returns, which protocol 1 allows and workers from older builds
// still send: one leased cell per /v1/return, each merged once while
// the lease's other cells stay leased. A plain worker then finishes the
// campaign, and the CSV must equal a single in-process session's.
func TestFleetPartialReturnsByteIdentity(t *testing.T) {
	opts := chaosOptions()
	want := singleProcessCSV(t, opts)
	cells := opts.Cells()

	coord, err := NewCoordinator(opts, cells, Config{
		LeaseTTL:   30 * time.Second,
		LeaseBatch: 3,
		RetryDelay: 10 * time.Millisecond,
		DrainGrace: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, serveCh := startCoordinator(t, coord)
	ctx := context.Background()

	var grant LeaseResponse
	if err := postJSON(ctx, http.DefaultClient, "http://"+addr+"/v1/lease",
		LeaseRequest{Worker: "partial", Max: 3}, &grant); err != nil {
		t.Fatal(err)
	}
	if len(grant.Cells) != 3 {
		t.Fatalf("leased %d cells, want 3", len(grant.Cells))
	}
	session := experiments.NewSession(opts)
	defer session.Close()
	results := runLease(ctx, session, grant.Cells)
	for i, ret := range results {
		if ret.Err != "" {
			t.Fatalf("cell %d: %s", ret.Pos, ret.Err)
		}
		var ack ReturnResponse
		if err := postJSON(ctx, http.DefaultClient, "http://"+addr+"/v1/return",
			ReturnRequest{LeaseID: grant.LeaseID, Worker: "partial", Results: []CellReturn{ret}}, &ack); err != nil {
			t.Fatal(err)
		}
		if ack.Accepted != 1 || ack.Duplicates != 0 || ack.Done {
			t.Fatalf("return %d: %+v, want one cell accepted", i, ack)
		}
		st := coord.Status()
		if left := len(results) - i - 1; st.Leased != left || st.Done != i+1 {
			t.Fatalf("after return %d: %d leased, %d done; want %d leased, %d done",
				i, st.Leased, st.Done, left, i+1)
		}
	}

	if _, err := Work(ctx, addr, WorkerOptions{Name: "finisher", Workers: 2, RetryBase: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	campaign := waitServe(t, serveCh)
	if got := campaignCSV(t, campaign); got != want {
		t.Errorf("CSV with partial returns diverges:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if st := coord.Stats(); st.Returned != len(cells) || st.Duplicates != 0 {
		t.Errorf("coordinator merged %d returns with %d duplicates, want %d and 0", st.Returned, st.Duplicates, len(cells))
	}
}
