package dist

// This file is the coordinator control plane: a JSON snapshot (GET
// /v1/status) and a Prometheus-style text export (GET /metrics) of the
// same numbers, so a fleet is observable — and autoscalable — while it
// runs. Both endpoints are read-only and safe to poll; the snapshot is
// taken under the coordinator lock, so its phase counts always sum to
// the cell total.

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"
)

// Status is the GET /v1/status response: one consistent snapshot of the
// campaign's lease state machine. Pending+Leased+Done always equals
// Cells.
type Status struct {
	Protocol    int    `json:"protocol"`
	Fingerprint string `json:"fingerprint"`

	// Phase counts, summing to Cells.
	Cells   int `json:"cells"`
	Pending int `json:"pending"`
	Leased  int `json:"leased"`
	Done    int `json:"done"`

	// Activity counters, and the leases still outstanding.
	Stats
	ActiveLeases int `json:"active_leases"`

	// Throughput over the coordinator's lifetime (merged returns per
	// second; restored cells excluded) and the ETA it implies for the
	// remaining cells. ETAMS is 0 until a return has been merged.
	UptimeMS    int64   `json:"uptime_ms"`
	CellsPerSec float64 `json:"cells_per_sec"`
	ETAMS       int64   `json:"eta_ms,omitempty"`

	// Completed reports every cell accounted for; Failed (with Err)
	// reports a failed campaign.
	Completed bool   `json:"completed,omitempty"`
	Failed    bool   `json:"failed,omitempty"`
	Err       string `json:"err,omitempty"`

	// Workers lists per-worker accounting, sorted by name.
	Workers []WorkerStatus `json:"workers,omitempty"`
}

// WorkerStatus is one worker's row in Status.Workers.
type WorkerStatus struct {
	Name       string `json:"name"`
	Leases     int    `json:"leases"`
	Returned   int    `json:"returned"`
	Duplicates int    `json:"duplicates,omitempty"`
	Renewals   int    `json:"renewals,omitempty"`
	Steals     int    `json:"steals,omitempty"`
	Expired    int    `json:"expired,omitempty"`
	// LastSeenMS is how long ago the worker last contacted the
	// coordinator, in milliseconds.
	LastSeenMS int64 `json:"last_seen_ms"`
}

// Status takes one consistent control-plane snapshot, with every
// deadline-passed lease already reclaimed.
func (c *Coordinator) Status() Status {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reclaimExpired(now)

	st := Status{
		Protocol:     ProtocolVersion,
		Fingerprint:  c.fingerprint,
		Cells:        len(c.cells),
		Stats:        c.stats,
		ActiveLeases: len(c.leases),
		UptimeMS:     now.Sub(c.startedAt).Milliseconds(),
		Completed:    c.remaining == 0,
		Failed:       c.failed,
	}
	for _, ph := range c.phase {
		switch ph {
		case cellPending:
			st.Pending++
		case cellLeased:
			st.Leased++
		case cellDone:
			st.Done++
		}
	}
	if err := c.firstErrLocked(); err != nil {
		st.Err = err.Error()
	}
	if elapsed := now.Sub(c.startedAt).Seconds(); elapsed > 0 && c.stats.Returned > 0 {
		st.CellsPerSec = float64(c.stats.Returned) / elapsed
		if remaining := len(c.cells) - st.Done; remaining > 0 {
			st.ETAMS = int64(float64(remaining) / st.CellsPerSec * 1000)
		}
	}
	names := make([]string, 0, len(c.workers))
	for name := range c.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		wk := c.workers[name]
		ws := wk.WorkerStatus
		ws.LastSeenMS = now.Sub(wk.lastSeen).Milliseconds()
		st.Workers = append(st.Workers, ws)
	}
	return st
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, c.Status())
}

// handleMetrics renders the status snapshot in the Prometheus text
// exposition format, one scrape per GET.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := c.Status()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", name, help, name, name, v)
	}
	gauge("clockgate_cells_total", "Total campaign cells.", float64(st.Cells))
	gauge("clockgate_cells_pending", "Cells waiting to be leased.", float64(st.Pending))
	gauge("clockgate_cells_leased", "Cells currently leased out.", float64(st.Leased))
	gauge("clockgate_cells_done", "Cells completed and merged.", float64(st.Done))
	gauge("clockgate_leases_active", "Leases currently outstanding.", float64(st.ActiveLeases))
	counter("clockgate_cells_restored_total", "Cells restored from the checkpoint journal at startup.", float64(st.Restored))
	counter("clockgate_leases_granted_total", "Non-empty lease grants.", float64(st.Leases))
	counter("clockgate_leases_expired_total", "Leases reclaimed after their deadline.", float64(st.Expired))
	counter("clockgate_leases_renewed_total", "Granted /v1/renew deadline extensions.", float64(st.Renewals))
	counter("clockgate_cells_stolen_total", "In-flight cells re-leased to an idle worker.", float64(st.Steals))
	counter("clockgate_returns_merged_total", "Cell results merged into the campaign.", float64(st.Returned))
	counter("clockgate_returns_duplicate_total", "Returned results discarded as duplicates.", float64(st.Duplicates))
	failed := 0.0
	if st.Failed {
		failed = 1
	}
	gauge("clockgate_campaign_failed", "1 when some cell failed and the campaign is over.", failed)
	gauge("clockgate_uptime_seconds", "Coordinator uptime.", float64(st.UptimeMS)/1000)
	gauge("clockgate_cells_per_second", "Merged returns per second of uptime.", st.CellsPerSec)
	gauge("clockgate_eta_seconds", "Estimated seconds until the remaining cells complete.", float64(st.ETAMS)/1000)
	for _, wk := range st.Workers {
		label := fmt.Sprintf("{worker=%q}", wk.Name)
		fmt.Fprintf(&b, "clockgate_worker_leases_total%s %d\n", label, wk.Leases)
		fmt.Fprintf(&b, "clockgate_worker_returned_total%s %d\n", label, wk.Returned)
		fmt.Fprintf(&b, "clockgate_worker_duplicates_total%s %d\n", label, wk.Duplicates)
		fmt.Fprintf(&b, "clockgate_worker_renewals_total%s %d\n", label, wk.Renewals)
		fmt.Fprintf(&b, "clockgate_worker_steals_total%s %d\n", label, wk.Steals)
		fmt.Fprintf(&b, "clockgate_worker_expired_total%s %d\n", label, wk.Expired)
		fmt.Fprintf(&b, "clockgate_worker_last_seen_seconds%s %g\n", label, float64(wk.LastSeenMS)/1000)
	}
	fmt.Fprint(w, b.String())
}

// FetchStatus fetches a coordinator's /v1/status snapshot. addr is
// "host:port" or a full http:// URL; a nil client uses a 10s-timeout
// default.
func FetchStatus(ctx context.Context, client *http.Client, addr string) (Status, error) {
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	var st Status
	if err := getJSON(ctx, client, normalizeBase(addr)+"/v1/status", &st); err != nil {
		return Status{}, fmt.Errorf("dist: status %s: %w", addr, err)
	}
	return st, nil
}

// Summary renders the full snapshot as a human-readable block — what
// `experiments -status addr` prints.
func (st Status) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign %s (protocol %d)\n", st.Fingerprint, st.Protocol)
	fmt.Fprintf(&b, "cells: %d total — %d done (%d restored), %d leased, %d pending\n",
		st.Cells, st.Done, st.Restored, st.Leased, st.Pending)
	fmt.Fprintf(&b, "leases: %d granted, %d active, %d expired, %d renewals, %d cells stolen\n",
		st.Leases, st.ActiveLeases, st.Expired, st.Renewals, st.Steals)
	fmt.Fprintf(&b, "returns: %d merged, %d duplicates discarded\n", st.Returned, st.Duplicates)
	fmt.Fprintf(&b, "uptime %s", (time.Duration(st.UptimeMS) * time.Millisecond).Round(time.Second))
	if st.CellsPerSec > 0 {
		fmt.Fprintf(&b, ", %.2f cells/s", st.CellsPerSec)
		if st.ETAMS > 0 {
			fmt.Fprintf(&b, ", ETA %s", (time.Duration(st.ETAMS) * time.Millisecond).Round(time.Second))
		}
	}
	b.WriteString("\n")
	switch {
	case st.Failed:
		fmt.Fprintf(&b, "campaign FAILED: %s\n", st.Err)
	case st.Completed:
		b.WriteString("campaign complete\n")
	}
	for _, wk := range st.Workers {
		fmt.Fprintf(&b, "  worker %-16s %3d leases, %4d returned, %2d dup, %3d renewals, %2d stolen, %2d expired, last seen %s ago\n",
			wk.Name, wk.Leases, wk.Returned, wk.Duplicates, wk.Renewals, wk.Steals, wk.Expired,
			(time.Duration(wk.LastSeenMS) * time.Millisecond).Round(100*time.Millisecond))
	}
	return b.String()
}
