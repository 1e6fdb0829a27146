// The distributed fabric's golden contract: a campaign run through a
// coordinator and N workers over loopback HTTP — including workers that
// die mid-lease and results returned twice — produces output
// byte-identical to a single-process Session.Run. These tests are the CI
// distributed smoke lane: they run race-enabled on every build.
package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/stamp"
)

// testOptions is a small two-app campaign (4 cells) at e2e scale.
func testOptions() experiments.Options {
	return experiments.Options{
		Seed:       42,
		Scale:      0.02,
		Workers:    2,
		Apps:       []stamp.App{stamp.Intruder, stamp.Genome},
		Processors: []int{4, 8},
	}
}

// singleProcessCSV is the golden: the same options run on one in-process
// session, rendered as CSV.
func singleProcessCSV(t *testing.T, opts experiments.Options) string {
	t.Helper()
	s := experiments.NewSession(opts)
	defer s.Close()
	campaign, err := s.Run(context.Background())
	if err != nil {
		t.Fatalf("single-process campaign: %v", err)
	}
	var buf strings.Builder
	if err := campaign.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func campaignCSV(t *testing.T, campaign *experiments.Campaign) string {
	t.Helper()
	var buf strings.Builder
	if err := campaign.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// runLease plays a worker by hand: it executes one lease's cells on the
// session pool and packages the results for the wire, as Work does when
// it returns a whole lease in one post. Cell failures become per-cell
// errors, not a worker failure: the coordinator decides what a failed
// cell means for the campaign.
func runLease(ctx context.Context, session *experiments.Session, leased []LeasedCell) []CellReturn {
	cells := make([]experiments.Cell, len(leased))
	for i, lc := range leased {
		cells[i] = lc.Cell
	}
	results := make([]CellReturn, 0, len(leased))
	for res := range session.StreamChan(ctx, cells) {
		ret := CellReturn{Pos: leased[res.Pos].Pos}
		switch {
		case res.Err != nil:
			ret.Err = res.Err.Error()
		default:
			ret.Record = experiments.NewCellRecord(res.Cell, res.Outcome)
		}
		results = append(results, ret)
	}
	return results
}

// startCoordinator serves the coordinator on an ephemeral loopback port
// and returns its address plus a channel carrying Serve's result.
type serveResult struct {
	campaign *experiments.Campaign
	err      error
}

func startCoordinator(t *testing.T, c *Coordinator) (string, <-chan serveResult) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan serveResult, 1)
	go func() {
		campaign, err := c.Serve(context.Background(), ln)
		ch <- serveResult{campaign, err}
	}()
	return ln.Addr().String(), ch
}

func waitServe(t *testing.T, ch <-chan serveResult) *experiments.Campaign {
	t.Helper()
	select {
	case res := <-ch:
		if res.err != nil {
			t.Fatalf("coordinator: %v", res.err)
		}
		return res.campaign
	case <-time.After(60 * time.Second):
		t.Fatal("coordinator did not finish")
		return nil
	}
}

// TestCampaignInfoDecodesRetiredTraceDir: a coordinator built before the
// on-disk trace store was retired still sends "TraceDir" in its options.
// A worker must join it: the handshake decodes, and the options it
// decodes fingerprint to the value the coordinator carries. The JSON is
// that coordinator's /v1/campaign answer for testOptions with TraceDir
// "/x".
//
// A coordinator built before sharding was retired may also serve one
// shard of a campaign. Its options decode, but without the shard they
// no longer fingerprint to the value it carries, so a worker refuses it
// as version skew instead of computing cells of the wrong campaign. That
// JSON is such a coordinator's answer for testOptions with Shard 1/3.
func TestCampaignInfoDecodesRetiredTraceDir(t *testing.T) {
	const body = `{"protocol":1,"fingerprint":"75e95f2cd829a0db","options":{"Seed":42,"Scale":0.02,` +
		`"Processors":[4,8],"Apps":["intruder","genome"],"W0":0,"Banks":0,"Topology":"","Tech":"",` +
		`"Workers":2,"DeriveSeeds":false,"Shard":{"Index":0,"Count":0},"NoTraceCache":false,` +
		`"NoSystemReuse":false,"TraceDir":"/x"},"cells":4}`
	var info CampaignInfo
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatalf("decoding the handshake: %v", err)
	}
	if info.Protocol != ProtocolVersion {
		t.Fatalf("protocol %d, want %d", info.Protocol, ProtocolVersion)
	}
	if got := info.Options.Fingerprint(); got != info.Fingerprint {
		t.Fatalf("decoded options fingerprint to %s, the coordinator carries %s", got, info.Fingerprint)
	}
	if got, want := info.Options.Fingerprint(), testOptions().Fingerprint(); got != want {
		t.Fatalf("decoded options fingerprint to %s, testOptions to %s", got, want)
	}

	const sharded = `{"protocol":1,"fingerprint":"3e2b142e235052a6","options":{"Seed":42,"Scale":0.02,` +
		`"Processors":[4,8],"Apps":["intruder","genome"],"W0":0,"Banks":0,"Topology":"","Tech":"",` +
		`"Workers":2,"DeriveSeeds":false,"Shard":{"Index":1,"Count":3},"NoTraceCache":false,` +
		`"NoSystemReuse":false},"cells":1}`
	info = CampaignInfo{}
	if err := json.Unmarshal([]byte(sharded), &info); err != nil {
		t.Fatalf("decoding the sharded handshake: %v", err)
	}
	if got := info.Options.Fingerprint(); got == info.Fingerprint {
		t.Fatalf("sharded campaign's options fingerprint to the value it carries (%s)", got)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, sharded)
	}))
	defer srv.Close()
	_, err := Work(context.Background(), srv.URL, WorkerOptions{Name: "w", Workers: 1})
	if err == nil || !strings.Contains(err.Error(), "version skew") {
		t.Fatalf("joining a sharded campaign: %v, want a version-skew refusal", err)
	}
}

// TestDistributedMergeByteIdentical is the fabric's headline golden: two
// workers race for leases over loopback and the merged CSV must equal
// the single-process output byte for byte.
func TestDistributedMergeByteIdentical(t *testing.T) {
	opts := testOptions()
	want := singleProcessCSV(t, opts)

	coord, err := NewCoordinator(opts, opts.Cells(), Config{
		LeaseTTL:   30 * time.Second,
		LeaseBatch: 1, // force the workers to interleave cell by cell
		RetryDelay: 20 * time.Millisecond,
		DrainGrace: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, serveCh := startCoordinator(t, coord)

	var wg sync.WaitGroup
	workerErrs := make([]error, 2)
	workerStats := make([]WorkerStats, 2)
	for i := range workerErrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			workerStats[i], workerErrs[i] = Work(context.Background(), addr,
				WorkerOptions{Name: "w", Workers: 2})
		}()
	}
	wg.Wait()
	for i, err := range workerErrs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	campaign := waitServe(t, serveCh)
	if got := campaignCSV(t, campaign); got != want {
		t.Errorf("distributed CSV diverges from single-process run:\nwant:\n%s\ngot:\n%s", want, got)
	}
	total := workerStats[0].Cells + workerStats[1].Cells
	if total != len(opts.Cells()) {
		t.Errorf("workers completed %d cells, campaign has %d", total, len(opts.Cells()))
	}
}

// TestDistributedWorkerFailure injects the fault the lease deadlines
// exist for: a worker leases cells and dies without returning them. The
// cells must be re-leased after the deadline and the merged output stay
// byte-identical.
func TestDistributedWorkerFailure(t *testing.T) {
	opts := testOptions()
	want := singleProcessCSV(t, opts)

	coord, err := NewCoordinator(opts, opts.Cells(), Config{
		LeaseTTL:   250 * time.Millisecond,
		LeaseBatch: 2,
		RetryDelay: 50 * time.Millisecond,
		DrainGrace: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, serveCh := startCoordinator(t, coord)

	// The doomed worker: takes a two-cell lease and is never heard from
	// again.
	var grant LeaseResponse
	if err := postJSON(context.Background(), http.DefaultClient,
		"http://"+addr+"/v1/lease", LeaseRequest{Worker: "doomed", Max: 2}, &grant); err != nil {
		t.Fatal(err)
	}
	if len(grant.Cells) != 2 {
		t.Fatalf("doomed worker leased %d cells, want 2", len(grant.Cells))
	}

	// A healthy worker joins and must complete the whole campaign once
	// the doomed lease expires.
	stats, err := Work(context.Background(), addr, WorkerOptions{Name: "healthy", Workers: 2})
	if err != nil {
		t.Fatalf("healthy worker: %v", err)
	}
	campaign := waitServe(t, serveCh)
	if got := campaignCSV(t, campaign); got != want {
		t.Errorf("CSV after worker failure diverges:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if stats.Cells != len(opts.Cells()) {
		t.Errorf("healthy worker ran %d cells, want all %d (re-leased included)", stats.Cells, len(opts.Cells()))
	}
	if cs := coord.Stats(); cs.Expired == 0 {
		t.Errorf("no lease expired: %+v", cs)
	}
}

// TestDistributedLeaseDedup is the dedup regression: the same cell
// returned twice — the second time from a lease that expired and whose
// cell re-ran elsewhere — is merged exactly once and the output is
// unchanged.
func TestDistributedLeaseDedup(t *testing.T) {
	opts := testOptions()
	want := singleProcessCSV(t, opts)
	cells := opts.Cells()

	coord, err := NewCoordinator(opts, cells, Config{
		LeaseTTL:   150 * time.Millisecond,
		LeaseBatch: 1,
		RetryDelay: 25 * time.Millisecond,
		DrainGrace: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, serveCh := startCoordinator(t, coord)
	ctx := context.Background()

	// Slow worker: leases one cell, computes it, but holds the result
	// past the lease deadline.
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
	time.Sleep(300 * time.Millisecond) // lease expires; cell re-leasable

	// Healthy worker completes the campaign, re-running the expired
	// cell.
	if _, err := Work(ctx, addr, WorkerOptions{Name: "healthy", Workers: 2}); err != nil {
		t.Fatalf("healthy worker: %v", err)
	}

	// The slow worker's return lands after the fact: accepted as a
	// duplicate, merged zero times.
	var ack ReturnResponse
	if err := postJSON(ctx, http.DefaultClient, "http://"+addr+"/v1/return",
		ReturnRequest{LeaseID: grant.LeaseID, Worker: "slow", Results: late}, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Duplicates != 1 || ack.Accepted != 0 {
		t.Errorf("late return: accepted=%d duplicates=%d, want 0/1", ack.Accepted, ack.Duplicates)
	}

	campaign := waitServe(t, serveCh)
	if got := campaignCSV(t, campaign); got != want {
		t.Errorf("CSV after duplicate return diverges:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if cs := coord.Stats(); cs.Duplicates != 1 {
		t.Errorf("coordinator counted %d duplicates, want 1 (%+v)", cs.Duplicates, cs)
	}
}

// TestDistributedJournalResumeCompatible pins the coordinator journal to
// the -resume checkpoint format: a journaled distributed campaign
// restarts fully restored, and a single-process session pointed at the
// same file replays it without re-running a cell — byte-identical both
// ways.
func TestDistributedJournalResumeCompatible(t *testing.T) {
	opts := testOptions()
	want := singleProcessCSV(t, opts)
	cells := opts.Cells()
	path := filepath.Join(t.TempDir(), "journal.jsonl")

	cfg := Config{
		LeaseTTL:       30 * time.Second,
		RetryDelay:     20 * time.Millisecond,
		DrainGrace:     200 * time.Millisecond,
		CheckpointPath: path,
	}
	coord, err := NewCoordinator(opts, cells, cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, serveCh := startCoordinator(t, coord)
	if _, err := Work(context.Background(), addr, WorkerOptions{Name: "w", Workers: 2}); err != nil {
		t.Fatalf("worker: %v", err)
	}
	if got := campaignCSV(t, waitServe(t, serveCh)); got != want {
		t.Errorf("journaled campaign CSV diverges:\nwant:\n%s\ngot:\n%s", want, got)
	}

	// Restarted coordinator: everything restores from the journal; the
	// campaign completes with no worker at all.
	coord2, err := NewCoordinator(opts, cells, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, serveCh2 := startCoordinator(t, coord2)
	if got := campaignCSV(t, waitServe(t, serveCh2)); got != want {
		t.Errorf("restored coordinator CSV diverges:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if cs := coord2.Stats(); cs.Restored != len(cells) {
		t.Errorf("restored %d cells, want %d", cs.Restored, len(cells))
	}

	// Single-process -resume on the same file: restores every cell.
	s := experiments.NewSession(opts)
	defer s.Close()
	if err := s.SetCheckpoint(path); err != nil {
		t.Fatalf("session refused the coordinator journal: %v", err)
	}
	campaign, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := campaignCSV(t, campaign); got != want {
		t.Errorf("-resume on the journal diverges:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if got := s.Checkpoint().Restored(); got != len(cells) {
		t.Errorf("session restored %d cells from the journal, want %d", got, len(cells))
	}
}

// TestDistributedJournalWriteFailureFailsCampaign pins the journal's
// failure path: when a merged cell cannot be written to the coordinator
// journal, the campaign fails and Serve returns an error naming the
// journal instead of a campaign it could not make durable. The worker
// whose return ended the campaign exits with that error too, though its
// own cells all ran.
func TestDistributedJournalWriteFailureFailsCampaign(t *testing.T) {
	opts := testOptions()
	coord, err := NewCoordinator(opts, opts.Cells(), Config{
		RetryDelay:     20 * time.Millisecond,
		DrainGrace:     100 * time.Millisecond,
		CheckpointPath: filepath.Join(t.TempDir(), "journal.jsonl"),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every later write to the journal fails.
	if err := coord.ckpt.Close(); err != nil {
		t.Fatal(err)
	}
	addr, serveCh := startCoordinator(t, coord)
	_, err = Work(context.Background(), addr, WorkerOptions{Name: "w", Workers: 2})
	if err == nil || !strings.Contains(err.Error(), "dist: campaign failed: ") || !strings.Contains(err.Error(), "journal") {
		t.Errorf("worker whose return failed the campaign exited with %v, want a campaign failure naming the journal", err)
	}

	select {
	case res := <-serveCh:
		if res.err == nil {
			t.Fatal("Serve returned a campaign whose journal writes failed")
		}
		if !strings.Contains(res.err.Error(), "journal") {
			t.Errorf("Serve error does not name the journal: %v", res.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Serve did not return after the journal write failed")
	}
}

// TestDistributedCellFailurePropagates pins the failure path: a cell
// that errors on a worker fails the campaign promptly — Serve returns
// the cell's error even with other cells still pending (no deadlock
// waiting for leases that will never be granted), and the worker whose
// cell failed exits with an error instead of reporting success.
func TestDistributedCellFailurePropagates(t *testing.T) {
	opts := testOptions()
	cells := opts.Cells()
	cells[0].Variant = "bogus-variant" // fails in variantConfigure on any worker

	coord, err := NewCoordinator(opts, cells, Config{
		LeaseBatch: 1,
		RetryDelay: 20 * time.Millisecond,
		DrainGrace: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, serveCh := startCoordinator(t, coord)

	if _, err := Work(context.Background(), addr, WorkerOptions{Name: "w", Workers: 2}); err == nil {
		t.Error("worker reported success on a campaign its own cell failed")
	} else if !strings.Contains(err.Error(), "bogus-variant") && !strings.Contains(err.Error(), "campaign failed") {
		t.Errorf("worker error does not name the failure: %v", err)
	}

	select {
	case res := <-serveCh:
		if res.err == nil {
			t.Fatal("Serve returned a campaign from a failed run")
		}
		if !strings.Contains(res.err.Error(), "bogus-variant") {
			t.Errorf("Serve error does not carry the cell failure: %v", res.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Serve did not return after the cell failure (failure deadlock)")
	}
}

// TestDistributedRejectsForeignRecord pins the integrity check: a return
// whose record computes a different cell than the campaign's cell at
// that position is refused with 409, not merged.
func TestDistributedRejectsForeignRecord(t *testing.T) {
	opts := testOptions()
	cells := opts.Cells()
	coord, err := NewCoordinator(opts, cells, Config{DrainGrace: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srvAddr, _ := startCoordinator(t, coord)
	ctx := context.Background()

	var grant LeaseResponse
	if err := postJSON(ctx, http.DefaultClient, "http://"+srvAddr+"/v1/lease",
		LeaseRequest{Worker: "confused", Max: 1}, &grant); err != nil {
		t.Fatal(err)
	}
	// Compute the right cell but return it under the wrong position.
	session := experiments.NewSession(opts)
	defer session.Close()
	res := runLease(ctx, session, grant.Cells)
	res[0].Pos = (res[0].Pos + 1) % len(cells)

	body, _ := json.Marshal(ReturnRequest{LeaseID: grant.LeaseID, Worker: "confused", Results: res})
	resp, err := http.Post("http://"+srvAddr+"/v1/return", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("mismatched record got %s, want 409", resp.Status)
	}
	if cs := coord.Stats(); cs.Returned != 0 {
		t.Errorf("foreign record was merged: %+v", cs)
	}
}
