package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
)

// WorkerOptions tunes one worker process.
type WorkerOptions struct {
	// Name identifies the worker in coordinator accounting and logs.
	// Default "<hostname>-<pid>".
	Name string
	// Workers is the local Session pool width — how many leased cells
	// simulate concurrently on this machine. Default GOMAXPROCS. A lease
	// request asks for 2×Workers cells, so the local pool stays fed
	// while a return round-trips. A grant may hold more, up to the
	// coordinator's LeaseBatch: the rest of the last cell's trace.
	Workers int
	// Client is the HTTP client used to reach the coordinator. Default
	// a client with a 30s request timeout.
	Client *http.Client
	// RetryBase is the first backoff delay of the transient-failure
	// retries (connection errors, 5xx), by which the worker survives a
	// flaky network or a briefly-unreachable coordinator instead of
	// dying on the first hiccup: at most 8 retries per request, the
	// delay doubling per attempt (with jitter) up to 5s. Protocol errors
	// (4xx, version skew, campaign failure) are never retried. Default
	// 100ms.
	RetryBase time.Duration
}

// The transient-failure retry budget of one request: at most maxRetries
// retries, with backoff delays capped at retryMax.
const (
	maxRetries = 8
	retryMax   = 5 * time.Second
)

func (o WorkerOptions) name() string {
	if o.Name != "" {
		return o.Name
	}
	host, err := os.Hostname()
	if err != nil {
		host = "worker"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

func (o WorkerOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o WorkerOptions) client() *http.Client {
	if o.Client != nil {
		return o.Client
	}
	return &http.Client{Timeout: 30 * time.Second}
}

func (o WorkerOptions) retryBase() time.Duration {
	if o.RetryBase > 0 {
		return o.RetryBase
	}
	return 100 * time.Millisecond
}

// WorkerStats summarizes one worker's participation in a campaign.
type WorkerStats struct {
	// Cells is how many cells this worker completed and returned.
	Cells int
	// Failed is how many of those cells ended in a simulation error
	// (reported to the coordinator, which fails the campaign).
	Failed int
	// Leases is how many non-empty leases the worker was granted.
	Leases int
	// Retries counts transient request failures survived by backoff.
	Retries int
	// Renewals counts granted lease heartbeats (/v1/renew).
	Renewals int
	// Stats counts which caches of the worker's session served its
	// cells: trace generations and hits, baselines run, shared and
	// waited for, and System reuses and rebuilds.
	experiments.Stats
}

// normalizeBase turns "host:port" or a full URL into a scheme-qualified
// base URL without a trailing slash.
func normalizeBase(addr string) string {
	base := strings.TrimSuffix(addr, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return base
}

// Work joins the coordinator at baseURL ("host:port" or a full http://
// URL) and executes leased cells until the campaign is done or ctx is
// canceled. The worker is a thin wrapper around the experiments.Session
// engine: one session (worker pool + trace cache) serves every lease,
// exactly as it serves a local campaign, so a cell computes the same
// bytes here as it would in-process.
//
// The worker is built to survive real networks: transient request
// failures (connection errors, 5xx) retry with bounded exponential
// backoff and jitter, and while a lease's cells are running a heartbeat
// goroutine renews the lease so cells slower than the coordinator's
// LeaseTTL are not reclaimed mid-compute. Only protocol errors — 4xx
// rejections, protocol-version or fingerprint skew, a failed campaign —
// end the worker.
func Work(ctx context.Context, baseURL string, o WorkerOptions) (stats WorkerStats, err error) {
	base := normalizeBase(baseURL)
	client := o.client()

	var info CampaignInfo
	if err := retry(ctx, o, &stats, func() error {
		return getJSON(ctx, client, base+"/v1/campaign", &info)
	}); err != nil {
		return stats, fmt.Errorf("dist: join %s: %w", base, err)
	}
	if info.Protocol != ProtocolVersion {
		return stats, fmt.Errorf("dist: coordinator speaks protocol %d, this worker %d", info.Protocol, ProtocolVersion)
	}
	if got := info.Options.Fingerprint(); got != info.Fingerprint {
		return stats, fmt.Errorf("dist: campaign fingerprint %s does not match its options (%s) — version skew?", info.Fingerprint, got)
	}

	// The session reuses the coordinator's result-relevant options
	// (seed, scale, W0, banks, …) so every cell computes the same bytes
	// it would in the coordinator's own process; parallelism is local.
	sopts := info.Options
	sopts.Workers = o.workers()
	session := experiments.NewSession(sopts)
	defer session.Close()
	defer func() { stats.Stats = session.Stats() }()

	name := o.name()
	for {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		var grant LeaseResponse
		err := retry(ctx, o, &stats, func() error {
			return postJSON(ctx, client, base+"/v1/lease", LeaseRequest{Worker: name, Max: 2 * o.workers()}, &grant)
		})
		if err != nil {
			return stats, fmt.Errorf("dist: lease: %w", err)
		}
		if grant.Err != "" {
			return stats, fmt.Errorf("dist: campaign failed: %s", grant.Err)
		}
		if grant.Done {
			return stats, nil
		}
		if len(grant.Cells) == 0 {
			retryIn := time.Duration(grant.RetryMS) * time.Millisecond
			if retryIn <= 0 {
				retryIn = 200 * time.Millisecond
			}
			select {
			case <-ctx.Done():
				return stats, ctx.Err()
			case <-time.After(retryIn):
			}
			continue
		}
		stats.Leases++

		// Heartbeat while the lease's cells compute: renewals keep a
		// slow cell's lease alive; a campaign failure observed by the
		// heartbeat cancels the run so the worker stops wasting work.
		runCtx, cancelRun := context.WithCancel(ctx)
		hb := startHeartbeat(runCtx, client, base, name, grant, cancelRun)

		cells := make([]experiments.Cell, len(grant.Cells))
		for i, lc := range grant.Cells {
			cells[i] = lc.Cell
		}
		results := make([]CellReturn, 0, len(cells))
		var cellErr string
		for res := range session.StreamChan(runCtx, cells) {
			ret := CellReturn{Pos: grant.Cells[res.Pos].Pos}
			stats.Cells++
			switch {
			case res.Err != nil:
				ret.Err = res.Err.Error()
				stats.Failed++
				if cellErr == "" {
					cellErr = ret.Err
				}
			default:
				ret.Record = experiments.NewCellRecord(res.Cell, res.Outcome)
			}
			results = append(results, ret)
		}
		// The whole lease goes back in one post as soon as its last cell
		// ends, while the heartbeat still holds the lease. A run cut
		// short (ctx canceled, or the heartbeat saw the campaign fail)
		// returns nothing; the checks below report why.
		var ack ReturnResponse
		var retErr error
		if runCtx.Err() == nil && len(results) == len(cells) {
			retErr = retry(ctx, o, &stats, func() error {
				return postJSON(ctx, client, base+"/v1/return",
					ReturnRequest{LeaseID: grant.LeaseID, Worker: name, Results: results}, &ack)
			})
		}
		cancelRun()
		<-hb.done
		stats.Renewals += hb.renewals
		if hb.campaignErr != nil {
			return stats, hb.campaignErr
		}
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		if retErr != nil {
			return stats, fmt.Errorf("dist: return: %w", retErr)
		}
		if ack.Err != "" {
			return stats, fmt.Errorf("dist: campaign failed: %s", ack.Err)
		}
		if ack.Done {
			// Done after our own failed cell means the failure ended the
			// campaign: exit loudly, like the workers that will observe
			// it via the lease path. A coordinator that predates
			// ReturnResponse.Err reports it no other way.
			if stats.Failed > 0 {
				return stats, fmt.Errorf("dist: campaign failed: %d of this worker's cells errored (first: %s)", stats.Failed, cellErr)
			}
			return stats, nil
		}
	}
}

// heartbeat is one lease's renewal loop. campaignErr and renewals are
// written by the goroutine and must be read only after done closes.
type heartbeat struct {
	done        chan struct{}
	renewals    int
	campaignErr error
}

// startHeartbeat renews the granted lease every third of its TTL until
// ctx cancels or the coordinator reports the lease gone (Expired — the
// results will still be returned and deduplicated) or the campaign over
// (Done, or Err — in which case cancelRun stops the in-flight cells). A
// failed renewal request is not retried in place: the next tick is the
// retry, and a lease missing a beat or two still has two-thirds of a
// TTL of slack.
func startHeartbeat(ctx context.Context, client *http.Client, base, worker string, grant LeaseResponse, cancelRun context.CancelFunc) *heartbeat {
	hb := &heartbeat{done: make(chan struct{})}
	ttl := time.Duration(grant.DeadlineMS) * time.Millisecond
	if ttl <= 0 {
		ttl = 2 * time.Minute
	}
	interval := ttl / 3
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	go func() {
		defer close(hb.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			var ack RenewResponse
			if err := postJSON(ctx, client, base+"/v1/renew", RenewRequest{LeaseID: grant.LeaseID, Worker: worker}, &ack); err != nil {
				var se *statusError
				if errors.As(err, &se) && se.code < 500 {
					// A coordinator that rejects /v1/renew outright
					// (e.g. an older protocol surface) will never
					// grant an extension: stop beating and fall back
					// to the lease-expiry failure model.
					return
				}
				continue
			}
			switch {
			case ack.Err != "":
				hb.campaignErr = fmt.Errorf("dist: campaign failed: %s", ack.Err)
				cancelRun()
				return
			case ack.Done || ack.Expired:
				return
			default:
				hb.renewals++
			}
		}
	}()
	return hb
}

// statusError is a non-200 coordinator response. The status code drives
// the retry policy: 5xx is transient, 4xx is a protocol error.
type statusError struct {
	code   int
	status string
	msg    string
}

func (e *statusError) Error() string { return fmt.Sprintf("%s: %s", e.status, e.msg) }

// transientErr reports whether a request failure is worth retrying:
// transport-level errors (refused connections, resets, truncated
// bodies) and 5xx responses are; 4xx protocol rejections are not.
func transientErr(err error) bool {
	var se *statusError
	if errors.As(err, &se) {
		return se.code >= 500 || se.code == http.StatusTooManyRequests
	}
	return true
}

// retry runs call with bounded exponential backoff plus jitter on
// transient failures. Non-transient errors, context cancellation and
// retry-budget exhaustion return the last error; successful retries are
// counted in stats.Retries.
func retry(ctx context.Context, o WorkerOptions, stats *WorkerStats, call func() error) error {
	delay := o.retryBase()
	for attempt := 0; ; attempt++ {
		err := call()
		if err == nil {
			return nil
		}
		if ctx.Err() != nil || !transientErr(err) || attempt >= maxRetries {
			return err
		}
		stats.Retries++
		// Equal jitter: half the window fixed, half uniform random, so
		// a fleet of workers knocked over together does not retry in
		// lockstep.
		sleep := delay/2 + rand.N(delay/2+1)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(sleep):
		}
		delay = min(2*delay, retryMax)
	}
}

func getJSON(ctx context.Context, client *http.Client, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	return doJSON(client, req, out)
}

func postJSON(ctx context.Context, client *http.Client, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return doJSON(client, req, out)
}

func doJSON(client *http.Client, req *http.Request, out any) error {
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return &statusError{code: resp.StatusCode, status: resp.Status, msg: strings.TrimSpace(string(msg))}
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
