// Package dist is the distributed campaign fabric: a coordinator that
// owns one campaign's canonical cell list and leases batches of cells
// over HTTP+JSON to any number of worker processes, each a thin wrapper
// around the experiments.Session engine. Returned results are merged by
// canonical cell position, so the final campaign — reports and CSV — is
// byte-identical to a single-process Session.Run of the same options,
// which the golden tests in dist_test.go pin.
//
// The protocol (specified in docs/DISTRIBUTED.md) is four work
// endpoints plus a read-only control plane:
//
//	GET  /v1/campaign   what this coordinator is running (fingerprint,
//	                    options, cell count) — the worker join handshake
//	POST /v1/lease      claim a batch of pending cells under a deadline
//	POST /v1/renew      heartbeat: extend a live lease's deadline while
//	                    its cells are still running
//	POST /v1/return     deliver completed cell records
//	GET  /v1/status     JSON snapshot: phase counts, per-worker
//	                    counters, throughput, ETA
//	GET  /metrics       the same numbers in Prometheus text format
//
// Leases carry deadlines: a live worker renews its claim while a cell
// runs (so slow cells outlive the TTL), and a worker that dies simply
// stops renewing — once the deadline passes the coordinator reclaims
// the batch's unfinished cells, first thing on every request and status
// read, so it runs no goroutine beside the HTTP server. Near the end of
// a campaign the coordinator may also re-lease the oldest in-flight
// cells to idle workers (straggler stealing). Results are deduplicated per
// cell (first completed return wins), so a slow worker returning after
// its lease expired — or after its cell was stolen and re-run elsewhere
// — changes nothing: cells are deterministic, and the merge keys on
// canonical position, not on who computed it.
package dist

import "repro/internal/experiments"

// ProtocolVersion guards the wire format. A worker refuses to join a
// coordinator speaking a different version.
const ProtocolVersion = 1

// CampaignInfo is the GET /v1/campaign response: what campaign this
// coordinator runs, identified the same way the checkpoint sink
// identifies it (the options fingerprint), plus the options themselves
// so a worker can build an identical Session.
type CampaignInfo struct {
	Protocol    int                 `json:"protocol"`
	Fingerprint string              `json:"fingerprint"`
	Options     experiments.Options `json:"options"`
	Cells       int                 `json:"cells"`
}

// LeaseRequest asks for Max cells of work. Past Max, the coordinator
// adds the next pending cells that share the last granted cell's trace,
// up to its LeaseBatch, so a grant may hold more than Max; with one cell
// per trace it holds at most Max. Worker is a free-form identity used
// for logs and lease accounting only — correctness never depends on it.
type LeaseRequest struct {
	Worker string `json:"worker"`
	Max    int    `json:"max,omitempty"`
}

// LeasedCell is one unit of leased work: the cell and its position in
// the coordinator's canonical cell list. The position is the merge key;
// the worker echoes it back with the result.
type LeasedCell struct {
	Pos  int              `json:"pos"`
	Cell experiments.Cell `json:"cell"`
}

// LeaseResponse grants a batch of cells (possibly empty). Done reports
// that every cell of the campaign is accounted for — the worker's signal
// to exit. With no grant and no Done, RetryMS suggests when to poll
// again (pending work may appear when another worker's lease expires).
type LeaseResponse struct {
	LeaseID    uint64       `json:"lease_id,omitempty"`
	Cells      []LeasedCell `json:"cells,omitempty"`
	DeadlineMS int64        `json:"deadline_ms,omitempty"` // lease TTL granted, in milliseconds
	Done       bool         `json:"done,omitempty"`
	RetryMS    int64        `json:"retry_ms,omitempty"`
	// Err reports a failed campaign (some cell errored): workers should
	// stop polling and exit with this error.
	Err string `json:"err,omitempty"`
}

// RenewRequest is the worker heartbeat: it extends the lease's deadline
// by one TTL while the lease's cells are still running, so a cell
// slower than the TTL is not reclaimed and re-run elsewhere.
type RenewRequest struct {
	LeaseID uint64 `json:"lease_id"`
	Worker  string `json:"worker"`
}

// RenewResponse answers a heartbeat. DeadlineMS carries the renewed TTL
// on success. Expired reports that the coordinator no longer tracks the
// lease (its deadline passed and it was reclaimed, or every cell was
// already returned): the worker should stop renewing but may still
// return its results — late returns are merged or deduplicated as
// usual. Done and Err mirror LeaseResponse: the campaign ended, so
// renewing (and computing) is pointless.
type RenewResponse struct {
	DeadlineMS int64  `json:"deadline_ms,omitempty"`
	Expired    bool   `json:"expired,omitempty"`
	Done       bool   `json:"done,omitempty"`
	Err        string `json:"err,omitempty"`
}

// CellReturn is one completed cell: its canonical position, and either
// the full record (the same serialization the checkpoint sink writes) or
// the cell's error.
type CellReturn struct {
	Pos    int                    `json:"pos"`
	Record experiments.CellRecord `json:"record"`
	Err    string                 `json:"err,omitempty"`
}

// ReturnRequest delivers a lease's completed cells. Partial returns are
// allowed; cells of the lease not included stay leased until the
// deadline.
type ReturnRequest struct {
	LeaseID uint64       `json:"lease_id"`
	Worker  string       `json:"worker"`
	Results []CellReturn `json:"results"`
}

// ReturnResponse acknowledges a return: how many results were merged,
// how many were discarded as duplicates (the cell was already complete —
// the dedup-on-re-lease rule), and whether the campaign is now done. Err
// mirrors LeaseResponse: the campaign has failed, by this return or
// before it, and the worker should exit with this error. Workers that
// predate it ignore the field.
type ReturnResponse struct {
	Accepted   int    `json:"accepted"`
	Duplicates int    `json:"duplicates"`
	Done       bool   `json:"done,omitempty"`
	Err        string `json:"err,omitempty"`
}
