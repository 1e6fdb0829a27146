package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
)

// Config tunes a coordinator. The zero value selects production-ish
// defaults; tests shrink the timings.
type Config struct {
	// LeaseTTL is how long a worker owns a leased batch before the
	// coordinator may hand its unfinished cells to someone else. A live
	// worker extends the deadline by POSTing /v1/renew while its cells
	// are still running, so the TTL bounds crash detection latency, not
	// cell runtime. Default 2 minutes.
	LeaseTTL time.Duration
	// LeaseBatch caps the cells granted per lease. Default 8. A grant
	// holds the request's Max cells, and past Max it takes the next
	// pending cells that share the last one's trace, up to LeaseBatch
	// (see NewCoordinator).
	LeaseBatch int
	// RetryDelay is the poll interval suggested to workers when no work
	// is pending (all cells leased or done). Default 200ms.
	RetryDelay time.Duration
	// DrainGrace is how long the coordinator keeps answering "done"
	// after the campaign completes, so polling workers observe the end
	// instead of a vanished server. Default 1s.
	DrainGrace time.Duration
	// StealThreshold enables straggler re-lease (work stealing): when at
	// most StealThreshold cells remain, none are pending, and an idle
	// worker asks for work, the coordinator re-leases the oldest
	// in-flight cells to it — first completed return wins, the per-cell
	// dedup discards the loser. 0 (the default) and negative values
	// disable stealing; the lease-expiry path alone then heals dead
	// workers.
	StealThreshold int
	// StealMinAge is the minimum age of a cell's current lease before
	// the cell may be stolen, damping steal ping-pong between idle
	// workers. Default LeaseTTL/2; negative means no minimum.
	StealMinAge time.Duration
	// CheckpointPath, when set, journals every merged cell as one JSONL
	// line — the exact checkpoint format `cmd/experiments -resume`
	// reads and writes. Restarting a coordinator (or a single-process
	// session) on the same file restores the completed cells without
	// re-running them.
	CheckpointPath string
	// OnListen, when set, is called with the bound listen address once
	// the coordinator is accepting connections — the hook loopback
	// examples and ":0" listeners use to learn the actual port.
	OnListen func(addr string)
}

func (c Config) leaseTTL() time.Duration {
	if c.LeaseTTL > 0 {
		return c.LeaseTTL
	}
	return 2 * time.Minute
}

func (c Config) leaseBatch() int {
	if c.LeaseBatch > 0 {
		return c.LeaseBatch
	}
	return 8
}

func (c Config) retryDelay() time.Duration {
	if c.RetryDelay > 0 {
		return c.RetryDelay
	}
	return 200 * time.Millisecond
}

func (c Config) drainGrace() time.Duration {
	if c.DrainGrace > 0 {
		return c.DrainGrace
	}
	return time.Second
}

// maxReturnBody bounds a /v1/return body. A return carries at most one
// lease, so at most LeaseBatch records, each no longer than a journal
// line.
func (c Config) maxReturnBody() int64 {
	return int64(c.leaseBatch()) * experiments.MaxJournalLine
}

func (c Config) stealMinAge() time.Duration {
	switch {
	case c.StealMinAge > 0:
		return c.StealMinAge
	case c.StealMinAge < 0:
		return 0
	}
	return c.leaseTTL() / 2
}

// Stats counts coordinator activity. Status embeds it, so the json
// tags name the /v1/status keys.
type Stats struct {
	// Leases is the number of non-empty lease grants.
	Leases int `json:"leases"`
	// Expired counts leases reclaimed after their deadline passed with
	// cells unfinished.
	Expired int `json:"expired"`
	// Returned counts cell results merged into the campaign.
	Returned int `json:"returned"`
	// Duplicates counts returned results discarded because the cell was
	// already complete (the dedup-on-re-lease rule).
	Duplicates int `json:"duplicates"`
	// Restored counts cells restored from the checkpoint journal at
	// startup instead of leased out.
	Restored int `json:"restored"`
	// Renewals counts granted /v1/renew deadline extensions.
	Renewals int `json:"renewals"`
	// Steals counts cells re-leased to an idle worker while still
	// in-flight on another (the straggler re-lease rule).
	Steals int `json:"steals"`
}

// cellPhase is the lease state machine of one cell:
//
//	pending --lease--> leased --return--> done
//	   ^                  |
//	   +---deadline past--+
//
// done is terminal; a done cell can never be leased again, and a second
// return of it is discarded as a duplicate. A leased cell may also be
// re-leased to a second worker (straggler steal): the phase stays
// leased, ownership moves to the newest lease, and the first completed
// return — from either owner — wins.
type cellPhase uint8

const (
	cellPending cellPhase = iota
	cellLeased
	cellDone
)

// lease is one granted batch.
type lease struct {
	id       uint64
	worker   string
	cells    []int // canonical positions granted
	granted  time.Time
	deadline time.Time
}

// workerCounters is the per-worker accounting behind Status.Workers,
// keyed by the free-form worker name: the row's counters, and the time
// LastSeenMS is measured from.
type workerCounters struct {
	WorkerStatus
	lastSeen time.Time
}

// Coordinator owns one campaign's canonical cell list and runs its lease
// state machine. Create with NewCoordinator, expose via Handler or
// Serve. Safe for concurrent use by the HTTP handlers.
type Coordinator struct {
	cfg         Config
	opts        experiments.Options
	fingerprint string
	cells       []experiments.Cell
	startedAt   time.Time

	mu        sync.Mutex
	phase     []cellPhase
	owner     []uint64 // active lease id per leased cell
	outcomes  []*core.Outcome
	errs      []error // per-cell failures, by position
	remaining int
	leases    map[uint64]*lease
	nextLease uint64
	stats     Stats
	workers   map[string]*workerCounters
	ckpt      *experiments.Checkpoint
	done      chan struct{}
	failed    bool
}

// NewCoordinator builds a coordinator for the given cells — the
// campaign's canonical order, exactly the slice a single-process
// Session.Run would execute. With Config.CheckpointPath set, cells
// already journaled there are restored immediately (the journal is
// validated against the options fingerprint, like -resume).
//
// Cells are leased in canonical order, and a grant that reaches the
// request's Max keeps taking the next pending cells while they share the
// last granted cell's trace key (experiments.Options.TraceKey), up to
// Config.LeaseBatch. When the cells of one key are adjacent, as the W0
// siblings of each point are in the benchmark's fleet-paper campaign,
// one worker's session then generates the trace and runs the ungated
// baseline once, as one process does. A campaign whose keys are all
// distinct gets the first min(Max, LeaseBatch) pending cells.
func NewCoordinator(opts experiments.Options, cells []experiments.Cell, cfg Config) (*Coordinator, error) {
	if len(cells) == 0 {
		return nil, fmt.Errorf("dist: no cells to coordinate")
	}
	c := &Coordinator{
		cfg:         cfg,
		opts:        opts,
		fingerprint: opts.Fingerprint(),
		cells:       cells,
		startedAt:   time.Now(),
		phase:       make([]cellPhase, len(cells)),
		owner:       make([]uint64, len(cells)),
		outcomes:    make([]*core.Outcome, len(cells)),
		errs:        make([]error, len(cells)),
		remaining:   len(cells),
		leases:      make(map[uint64]*lease),
		workers:     make(map[string]*workerCounters),
		done:        make(chan struct{}),
	}
	if cfg.CheckpointPath != "" {
		ck, err := experiments.OpenCheckpoint(cfg.CheckpointPath, c.fingerprint)
		if err != nil {
			return nil, err
		}
		c.ckpt = ck
		for i, cell := range cells {
			if out, ok := ck.Lookup(cell); ok {
				c.outcomes[i] = out
				c.phase[i] = cellDone
				c.remaining--
				c.stats.Restored++
			}
		}
		if c.remaining == 0 {
			close(c.done)
		}
	}
	return c, nil
}

// Stats returns a snapshot of the activity counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reclaimExpired(time.Now())
	return c.stats
}

// Handler returns the coordinator's HTTP protocol surface: the three
// work endpoints plus the read-only control plane (/v1/status JSON and
// the Prometheus-style /metrics text).
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/campaign", c.handleCampaign)
	mux.HandleFunc("POST /v1/lease", c.handleLease)
	mux.HandleFunc("POST /v1/renew", c.handleRenew)
	mux.HandleFunc("POST /v1/return", c.handleReturn)
	mux.HandleFunc("GET /v1/status", c.handleStatus)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// maxControlBody bounds the /v1/lease and /v1/renew bodies: a worker
// name and an integer or two. The name keys the per-worker table that
// /v1/status and /metrics render on every scrape, so the bound also caps
// what one request can add to every later scrape.
const maxControlBody = 64 << 10

// decodeBody decodes a request body of at most limit bytes into v. A
// longer body answers 413: unread if its Content-Length says so, cut off
// at the bound if its length is unknown. Any other decode failure
// answers 400. It reports whether v was decoded.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, limit int64, v any) bool {
	err := error(&http.MaxBytesError{Limit: limit})
	if r.ContentLength <= limit {
		err = json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	}
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	http.Error(w, fmt.Sprintf("bad %s request: %v", what, err), code)
	return false
}

func (c *Coordinator) handleCampaign(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, CampaignInfo{
		Protocol:    ProtocolVersion,
		Fingerprint: c.fingerprint,
		Options:     c.opts,
		Cells:       len(c.cells),
	})
}

// workerLocked returns (creating on first contact) the counters for the
// named worker and stamps its last-seen time. Called with mu held.
func (c *Coordinator) workerLocked(name string, now time.Time) *workerCounters {
	wk := c.workers[name]
	if wk == nil {
		wk = &workerCounters{WorkerStatus: WorkerStatus{Name: name}}
		c.workers[name] = wk
	}
	wk.lastSeen = now
	return wk
}

// closeDoneLocked signals campaign completion exactly once. Called with
// mu held.
func (c *Coordinator) closeDoneLocked() {
	select {
	case <-c.done:
	default:
		close(c.done)
	}
}

// reclaimExpired returns every cell of every deadline-passed lease to
// the pending pool. Called with mu held by every path that reads or
// changes lease state (lease, renew, return, Status, Stats) before it
// does, so each sees exactly what a sweep at that instant would have
// left: a fleet whose workers all died still reports its leases expired
// without a live worker asking for work. Cells whose ownership moved to
// a newer lease (a renewal keeps ownership; a steal moves it) are left
// alone: only the current owner's deadline matters.
func (c *Coordinator) reclaimExpired(now time.Time) {
	for id, l := range c.leases {
		if now.Before(l.deadline) {
			continue
		}
		expired := false
		for _, pos := range l.cells {
			if c.phase[pos] == cellLeased && c.owner[pos] == id {
				c.phase[pos] = cellPending
				c.owner[pos] = 0
				expired = true
			}
		}
		delete(c.leases, id)
		if expired {
			c.stats.Expired++
			if wk := c.workers[l.worker]; wk != nil {
				wk.Expired++
			}
		}
	}
}

// stealLocked implements the straggler re-lease rule: with no pending
// cells, at most Config.StealThreshold cells remaining, and an idle
// worker asking, the oldest in-flight cells of *other* workers are
// granted again. Ownership moves to the new lease; whichever copy
// returns first wins (the per-cell dedup discards the other), so the
// merged bytes cannot change. Called with mu held; returns nil when
// stealing is disabled or no cell qualifies.
func (c *Coordinator) stealLocked(worker string, now time.Time, max int) ([]LeasedCell, []int) {
	if c.cfg.StealThreshold <= 0 || c.remaining > c.cfg.StealThreshold {
		return nil, nil
	}
	minAge := c.cfg.stealMinAge()
	type candidate struct {
		pos     int
		granted time.Time
	}
	var cands []candidate
	for pos := range c.cells {
		if c.phase[pos] != cellLeased {
			continue
		}
		l := c.leases[c.owner[pos]]
		if l == nil || l.worker == worker {
			continue
		}
		if now.Sub(l.granted) < minAge {
			continue
		}
		cands = append(cands, candidate{pos: pos, granted: l.granted})
	}
	// Oldest in-flight first: the longest-running lease is the likeliest
	// straggler. Position breaks ties so the order is deterministic.
	sort.Slice(cands, func(i, j int) bool {
		if !cands[i].granted.Equal(cands[j].granted) {
			return cands[i].granted.Before(cands[j].granted)
		}
		return cands[i].pos < cands[j].pos
	})
	if len(cands) > max {
		cands = cands[:max]
	}
	var granted []LeasedCell
	var positions []int
	for _, cd := range cands {
		granted = append(granted, LeasedCell{Pos: cd.pos, Cell: c.cells[cd.pos]})
		positions = append(positions, cd.pos)
	}
	return granted, positions
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decodeBody(w, r, "lease", maxControlBody, &req) {
		return
	}
	max := req.Max
	if max <= 0 || max > c.cfg.leaseBatch() {
		max = c.cfg.leaseBatch()
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failed {
		writeJSON(w, LeaseResponse{Done: true, Err: c.firstErrLocked().Error()})
		return
	}
	if c.remaining == 0 {
		writeJSON(w, LeaseResponse{Done: true})
		return
	}
	now := time.Now()
	c.reclaimExpired(now)
	wk := c.workerLocked(req.Worker, now)

	var granted []LeasedCell
	var positions []int
	for pos, cell := range c.cells {
		if c.phase[pos] != cellPending {
			continue
		}
		if n := len(granted); n >= max {
			// Past Max, take the rest of the last cell's trace, so one
			// session generates it and runs its baseline.
			if n >= c.cfg.leaseBatch() || c.opts.TraceKey(cell) != c.opts.TraceKey(granted[n-1].Cell) {
				break
			}
		}
		granted = append(granted, LeasedCell{Pos: pos, Cell: cell})
		positions = append(positions, pos)
	}
	stolen := 0
	if len(granted) == 0 {
		granted, positions = c.stealLocked(req.Worker, now, max)
		stolen = len(positions)
	}
	if len(granted) == 0 {
		// Everything is leased out or done: poll again later (an
		// expiry or a qualifying steal may free work before the
		// campaign completes).
		writeJSON(w, LeaseResponse{RetryMS: c.cfg.retryDelay().Milliseconds()})
		return
	}
	c.nextLease++
	l := &lease{
		id:       c.nextLease,
		worker:   req.Worker,
		cells:    positions,
		granted:  now,
		deadline: now.Add(c.cfg.leaseTTL()),
	}
	c.leases[l.id] = l
	for _, pos := range positions {
		c.phase[pos] = cellLeased
		c.owner[pos] = l.id
	}
	c.stats.Leases++
	wk.Leases++
	if stolen > 0 {
		c.stats.Steals += stolen
		wk.Steals += stolen
	}
	writeJSON(w, LeaseResponse{
		LeaseID:    l.id,
		Cells:      granted,
		DeadlineMS: c.cfg.leaseTTL().Milliseconds(),
	})
}

// handleRenew extends a live lease's deadline by one TTL — the
// heartbeat a worker sends while a leased cell is still running, so
// slow cells outlive the TTL instead of being reclaimed mid-compute. A
// lease the coordinator no longer tracks (expired and reclaimed, or
// fully returned) answers Expired: the worker stops renewing but may
// still return its results — the per-cell dedup sorts it out.
func (c *Coordinator) handleRenew(w http.ResponseWriter, r *http.Request) {
	var req RenewRequest
	if !decodeBody(w, r, "renew", maxControlBody, &req) {
		return
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failed {
		writeJSON(w, RenewResponse{Err: c.firstErrLocked().Error()})
		return
	}
	if c.remaining == 0 {
		writeJSON(w, RenewResponse{Done: true})
		return
	}
	now := time.Now()
	c.reclaimExpired(now)
	l, ok := c.leases[req.LeaseID]
	if !ok {
		writeJSON(w, RenewResponse{Expired: true})
		return
	}
	l.deadline = now.Add(c.cfg.leaseTTL())
	c.stats.Renewals++
	c.workerLocked(req.Worker, now).Renewals++
	writeJSON(w, RenewResponse{DeadlineMS: c.cfg.leaseTTL().Milliseconds()})
}

func (c *Coordinator) handleReturn(w http.ResponseWriter, r *http.Request) {
	var req ReturnRequest
	if !decodeBody(w, r, "return", c.cfg.maxReturnBody(), &req) {
		return
	}
	// Validate the whole batch before mutating any state: a bad record
	// at index k > 0 must not leave indices < k merged, journaled and
	// counted behind a 4xx — the return is atomic, accepted or rejected
	// as a unit, so a worker can safely retry an identical request. The
	// cell list never changes, so this needs no lock.
	for _, res := range req.Results {
		if res.Pos < 0 || res.Pos >= len(c.cells) {
			http.Error(w, fmt.Sprintf("result position %d out of range [0,%d)", res.Pos, len(c.cells)), http.StatusBadRequest)
			return
		}
		if res.Err == "" && res.Record.Cell.Key() != c.cells[res.Pos].Key() {
			// A record that does not compute the campaign's cell at
			// this position can never be merged — reject the whole
			// return so the bug is loud.
			http.Error(w, fmt.Sprintf("result for position %d is cell %q, campaign expects %q",
				res.Pos, res.Record.Cell.Key(), c.cells[res.Pos].Key()), http.StatusConflict)
			return
		}
		if res.Err == "" {
			if err := res.Record.Validate(); err != nil {
				http.Error(w, fmt.Sprintf("result for position %d: %v", res.Pos, err), http.StatusBadRequest)
				return
			}
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	c.reclaimExpired(now)
	wk := c.workerLocked(req.Worker, now)
	var resp ReturnResponse
	for _, res := range req.Results {
		if c.phase[res.Pos] == cellDone {
			// Dedup-on-re-lease: the cell was already completed (by an
			// earlier return, possibly after this worker's lease
			// expired or its cell was stolen and re-ran elsewhere).
			// Cells are deterministic, so discarding the late copy
			// cannot change the merged output.
			resp.Duplicates++
			c.stats.Duplicates++
			wk.Duplicates++
			continue
		}
		if res.Err != "" {
			c.errs[res.Pos] = fmt.Errorf("dist: cell %d (%s): %s", c.cells[res.Pos].Index, c.cells[res.Pos].Label(), res.Err)
			c.failed = true
		} else {
			out := res.Record.Outcome()
			c.outcomes[res.Pos] = out
			// Journaled under the lock as it merges, so the journal's
			// order is the merge order. A write that fails fails the
			// campaign, as a failed cell does.
			if c.ckpt != nil {
				if err := c.ckpt.Record(c.cells[res.Pos], out); err != nil {
					c.errs[res.Pos] = fmt.Errorf("dist: journal: %w", err)
					c.failed = true
				}
			}
		}
		c.phase[res.Pos] = cellDone
		c.owner[res.Pos] = 0
		c.remaining--
		c.stats.Returned++
		wk.Returned++
		resp.Accepted++
	}
	// A fully-returned lease has nothing left to reclaim: drop it now
	// instead of letting it linger until its deadline.
	if l, ok := c.leases[req.LeaseID]; ok && !slices.ContainsFunc(l.cells, func(pos int) bool { return c.phase[pos] != cellDone }) {
		delete(c.leases, req.LeaseID)
	}
	// The campaign ends when every cell is accounted for — or as soon as
	// any cell fails: cells are deterministic, so a failed cell would
	// fail on every worker, and waiting for the rest would leave Serve
	// blocked forever once leases stop being granted.
	if c.remaining == 0 || c.failed {
		c.closeDoneLocked()
		resp.Done = true
	}
	if c.failed {
		resp.Err = c.firstErrLocked().Error()
	}
	writeJSON(w, resp)
}

// firstErrLocked returns the lowest-position cell failure, mirroring the
// deterministic error reporting of Session.RunCells. Called with mu
// held; nil when no cell failed.
func (c *Coordinator) firstErrLocked() error {
	for _, err := range c.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Campaign assembles the merged campaign in canonical cell order. It is
// valid once every cell is accounted for (Serve returns it); calling it
// earlier returns an error.
func (c *Coordinator) Campaign() (*experiments.Campaign, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.firstErrLocked(); err != nil {
		return nil, err
	}
	if c.remaining != 0 {
		return nil, fmt.Errorf("dist: campaign incomplete: %d of %d cells outstanding", c.remaining, len(c.cells))
	}
	return &experiments.Campaign{Options: c.opts, Cells: c.cells, Outcomes: c.outcomes}, nil
}

// Serve runs the coordinator on the listener until the campaign
// completes or ctx is canceled, then returns the merged campaign. It
// starts no goroutine beside the HTTP server: expired leases are
// reclaimed by the requests and reads that meet them. After completion
// the server keeps answering "done" for Config.DrainGrace so polling
// workers observe the end instead of a vanished server. The listener is
// closed on return; the checkpoint journal, if any, is closed too.
func (c *Coordinator) Serve(ctx context.Context, ln net.Listener) (*experiments.Campaign, error) {
	srv := &http.Server{Handler: c.Handler()}
	errCh := make(chan error, 1)
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			errCh <- err
		}
	}()
	defer srv.Close()
	if c.ckpt != nil {
		defer c.ckpt.Close()
	}
	if c.cfg.OnListen != nil {
		c.cfg.OnListen(ln.Addr().String())
	}
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case err := <-errCh:
		return nil, fmt.Errorf("dist: coordinator server: %w", err)
	case <-c.done:
	}
	// Drain: let polling workers see Done before the server goes away.
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-time.After(c.cfg.drainGrace()):
	}
	return c.Campaign()
}
