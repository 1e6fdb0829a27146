package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bus"
	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/stamp"
	"repro/internal/stats"
)

// computedReturns runs the first two cells of testOptions and returns
// their results as a worker would post them.
func computedReturns(tb testing.TB) []CellReturn {
	tb.Helper()
	opts := testOptions()
	session := experiments.NewSession(opts)
	defer session.Close()
	leased := []LeasedCell{{Pos: 0, Cell: opts.Cells()[0]}, {Pos: 1, Cell: opts.Cells()[1]}}
	results := runLease(context.Background(), session, leased)
	if len(results) != 2 || results[0].Err != "" || results[1].Err != "" {
		tb.Fatalf("computing the returns failed: %+v", results)
	}
	return results
}

// newReturnCoordinator is a coordinator over testOptions' cells that has
// granted nothing yet.
func newReturnCoordinator(tb testing.TB) *Coordinator {
	tb.Helper()
	opts := testOptions()
	c, err := NewCoordinator(opts, opts.Cells(), Config{})
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// serveReturn posts body to the coordinator's /v1/return handler and
// returns the response status code.
func serveReturn(c *Coordinator, body []byte) int {
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/return", bytes.NewReader(body)))
	return rec.Code
}

// statusSnapshot is Status with its clock-driven fields zeroed, so that
// snapshots taken around a rejected request compare equal.
func statusSnapshot(c *Coordinator) Status {
	st := c.Status()
	st.UptimeMS, st.CellsPerSec, st.ETAMS = 0, 0, 0
	for i := range st.Workers {
		st.Workers[i].LastSeenMS = 0
	}
	return st
}

// spaces reads as n ASCII spaces.
type spaces struct{ n int64 }

func (s *spaces) Read(p []byte) (int, error) {
	if s.n == 0 {
		return 0, io.EOF
	}
	k := min(int64(len(p)), s.n)
	for i := range p[:k] {
		p[i] = ' '
	}
	s.n -= k
	return int(k), nil
}

// TestCoordinatorBoundsReturnBody: a /v1/return body may be as long as
// LeaseBatch journal lines, since a return carries at most one lease. A
// valid return merges; the same return padded with JSON whitespace to one
// byte over the bound is refused with 413 and merges nothing, whether its
// Content-Length announces the size (the body is then left unread) or
// its length is unknown.
func TestCoordinatorBoundsReturnBody(t *testing.T) {
	body, err := json.Marshal(ReturnRequest{Worker: "w", Results: computedReturns(t)[:1]})
	if err != nil {
		t.Fatal(err)
	}
	head, tail := body[:len(body)-1], body[len(body)-1:] // pad before the closing brace
	over := Config{}.maxReturnBody() + 1
	for _, tc := range []struct {
		name     string
		size     int64
		known    bool
		code     int
		returned int
	}{
		{"unpadded", int64(len(body)), true, http.StatusOK, 1},
		{"one byte over the bound", over, true, http.StatusRequestEntityTooLarge, 0},
		{"one byte over the bound, length unknown", over, false, http.StatusRequestEntityTooLarge, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newReturnCoordinator(t)
			before := statusSnapshot(c)
			req := httptest.NewRequest(http.MethodPost, "/v1/return",
				io.MultiReader(bytes.NewReader(head), &spaces{n: tc.size - int64(len(body))}, bytes.NewReader(tail)))
			req.ContentLength = -1
			if tc.known {
				req.ContentLength = tc.size
			}
			rec := httptest.NewRecorder()
			c.Handler().ServeHTTP(rec, req)
			if rec.Code != tc.code {
				t.Fatalf("%d-byte return got %d, want %d", tc.size, rec.Code, tc.code)
			}
			if got := c.Stats().Returned; got != tc.returned {
				t.Fatalf("%d-byte return merged %d cells, want %d", tc.size, got, tc.returned)
			}
			if tc.code != http.StatusOK && !reflect.DeepEqual(statusSnapshot(c), before) {
				t.Fatalf("refused return changed the status:\nbefore %+v\nafter  %+v", before, statusSnapshot(c))
			}
		})
	}
}

// widen sets every number in v to its widest JSON form: signed integers
// to their minimum, unsigned ones to their maximum, and floats to 17
// significant digits just above 1e-6, which encoding/json writes in 25
// bytes without an exponent.
func widen(v reflect.Value) {
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(math.MinInt64)
	case reflect.Uint64:
		v.SetUint(math.MaxUint64)
	case reflect.Float64:
		v.SetFloat(-1.2345678901234567e-06)
	case reflect.Struct:
		for i := range v.NumField() {
			widen(v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		for i := range v.Len() {
			widen(v.Index(i))
		}
	}
}

func longest[S ~string](names []S) S {
	var out S
	for _, n := range names {
		if len(n) > len(out) {
			out = n
		}
	}
	return out
}

// widestRecord bounds every record a cell can produce: the most
// processors, the interconnect with the most per-link counters, the
// longest built-in names and every number at its widest.
func widestRecord() experiments.CellRecord {
	type shape struct {
		banks    int
		topology string
	}
	shapes := []shape{{config.MaxBanks, "bus"}, {0, "xbar"}, {0, "ring"}}
	// For a given row count a mesh has the most links at the most
	// columns, so these shapes cover every mesh.
	for r := 1; r <= config.MaxProcessors; r++ {
		shapes = append(shapes, shape{0, fmt.Sprintf("mesh:%dx%d", r, config.MaxProcessors/r)})
	}
	links, topologies := 0, []string{}
	for _, sh := range shapes {
		ic := bus.NewInterconnect(sim.NewEngine(), 1, sh.banks, config.MaxProcessors, sh.topology)
		links = max(links, len(ic.BankStats()))
		topologies = append(topologies, sh.topology)
	}
	var ids []string
	for _, sc := range experiments.Matrix() {
		ids = append(ids, sc.ID)
	}
	run := func() experiments.RunRecord {
		return experiments.RunRecord{
			Residency: make([][stats.NumStates]sim.Time, config.MaxProcessors),
			TraceName: string(longest(stamp.AllApps())),
			BankBus:   make([]bus.Stats, links),
		}
	}
	rec := experiments.CellRecord{
		Cell: experiments.Cell{
			ID:         longest(ids),
			App:        longest(stamp.AllApps()),
			Contention: experiments.ContentionHigh,
			Topology:   longest(topologies),
			Tech:       longest(energy.Names()),
			Variant:    experiments.PolicyVariant(config.PolicyGatingAware),
		},
		Ungated: run(),
		Gated:   run(),
	}
	widen(reflect.ValueOf(&rec).Elem())
	return rec
}

// TestWidestRecordFitsBounds: the widest record fits one journal line,
// and a return of a whole default lease of them fits the /v1/return
// bound.
func TestWidestRecordFitsBounds(t *testing.T) {
	rec := widestRecord()
	line, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(line) >= experiments.MaxJournalLine {
		t.Errorf("the widest record takes %d bytes, a journal line at most %d", len(line), experiments.MaxJournalLine)
	}
	results := make([]CellReturn, Config{}.leaseBatch())
	for i := range results {
		results[i] = CellReturn{Pos: math.MinInt, Record: rec}
	}
	body, err := json.Marshal(ReturnRequest{LeaseID: math.MaxUint64, Worker: "w", Results: results})
	if err != nil {
		t.Fatal(err)
	}
	if bound := (Config{}).maxReturnBody(); int64(len(body)) > bound {
		t.Errorf("a return of %d widest records takes %d bytes, the bound is %d", len(results), len(body), bound)
	}
	t.Logf("widest record %d bytes; a return of %d of them %d bytes", len(line), len(results), len(body))
}

// FuzzCoordinatorReturn posts arbitrary bodies to a fresh coordinator's
// /v1/return. Every body must get 200 or a 4xx, never a panic or a 5xx,
// and a refused return must leave Status and Stats unchanged. The seeds
// are a valid two-cell return, the same return with each of the defects
// the handler refuses, a failed cell, and malformed JSON.
func FuzzCoordinatorReturn(f *testing.F) {
	results := computedReturns(f)
	add := func(results ...CellReturn) {
		body, err := json.Marshal(ReturnRequest{LeaseID: 1, Worker: "w", Results: results})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	add(results...)
	outOfRange, foreign, torn := results[1], results[1], results[1]
	outOfRange.Pos = 99
	foreign.Pos = 0
	torn.Record.Gated.Residency = append(torn.Record.Gated.Residency[:0:0], torn.Record.Gated.Residency[1:]...)
	add(results[0], outOfRange)
	add(results[0], foreign)
	add(results[0], torn)
	add(CellReturn{Pos: 2, Err: "cell failed"})
	for _, body := range []string{"", "{}", "null", `{"results":[{"pos":0,"record":{"cell":`, `{"results":7}`} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		c := newReturnCoordinator(t)
		before, stats := statusSnapshot(c), c.Stats()
		code := serveReturn(c, body)
		switch {
		case code == http.StatusOK:
		case code >= 400 && code < 500:
			if !reflect.DeepEqual(statusSnapshot(c), before) || c.Stats() != stats {
				t.Fatalf("return refused with %d changed the coordinator:\nbefore %+v\nafter  %+v", code, before, statusSnapshot(c))
			}
		default:
			t.Fatalf("return got %d, want 200 or a 4xx", code)
		}
	})
}

// leasedCoordinator is a coordinator over testOptions' cells that has
// granted worker "w" lease 1, so a renew request can reach a live lease.
func leasedCoordinator(tb testing.TB) *Coordinator {
	tb.Helper()
	c := newReturnCoordinator(tb)
	if grant := requestLease(tb, c, "w", 1); grant.LeaseID != 1 {
		tb.Fatalf("granted lease %d, want lease 1", grant.LeaseID)
	}
	return c
}

// controlBody is a path's request whose worker name pads the body to
// exactly size bytes.
func controlBody(path string, size int) string {
	head, tail := `{"worker":"`, `","max":1}`
	if path == "/v1/renew" {
		head, tail = `{"lease_id":1,"worker":"`, `"}`
	}
	return head + strings.Repeat("x", size-len(head)-len(tail)) + tail
}

// TestCoordinatorBoundsLeaseRenewBody: a /v1/lease or /v1/renew body is a
// worker name and an integer or two, bounded at maxControlBody bytes. A
// body at the bound is served and records its worker; one byte over is
// refused with 413 and changes nothing, whether its Content-Length
// announces the size or the length is unknown.
func TestCoordinatorBoundsLeaseRenewBody(t *testing.T) {
	for _, endpoint := range []string{"lease", "renew"} {
		path := "/v1/" + endpoint
		for _, tc := range []struct {
			name string
			size int
			code int
		}{
			{"at the bound", maxControlBody, http.StatusOK},
			{"one byte over the bound", maxControlBody + 1, http.StatusRequestEntityTooLarge},
		} {
			for _, length := range []string{"known", "unknown"} {
				t.Run(fmt.Sprintf("%s %s, length %s", endpoint, tc.name, length), func(t *testing.T) {
					c := leasedCoordinator(t)
					before, stats := statusSnapshot(c), c.Stats()
					// A reader httptest cannot size, so ContentLength is
					// only what the test sets.
					body := io.MultiReader(strings.NewReader(controlBody(path, tc.size)))
					req := httptest.NewRequest(http.MethodPost, path, body)
					req.ContentLength = -1
					if length == "known" {
						req.ContentLength = int64(tc.size)
					}
					rec := httptest.NewRecorder()
					c.Handler().ServeHTTP(rec, req)
					if rec.Code != tc.code {
						t.Fatalf("%d-byte body got %d, want %d", tc.size, rec.Code, tc.code)
					}
					after := statusSnapshot(c)
					if tc.code == http.StatusOK {
						if len(after.Workers) != len(before.Workers)+1 {
							t.Fatalf("served request recorded %d workers, want %d", len(after.Workers), len(before.Workers)+1)
						}
						return
					}
					if !reflect.DeepEqual(after, before) || c.Stats() != stats {
						t.Fatalf("refused request changed the coordinator:\nbefore %+v\nafter  %+v", before, after)
					}
				})
			}
		}
	}
}

// FuzzCoordinatorLeaseRenew posts arbitrary bodies to /v1/lease or
// /v1/renew on a coordinator holding one live lease. Every body must get
// 200 or a 4xx, never a panic or a 5xx, a refused request must leave
// Status and Stats unchanged, and a granted lease must keep the lease
// rule (checkGrant). The seeds are valid requests, a renew of an unknown
// lease, malformed and mistyped JSON, and a body one byte over the bound
// for each endpoint. FuzzCoordinatorLeaseGroups fuzzes the rule itself.
func FuzzCoordinatorLeaseRenew(f *testing.F) {
	for _, body := range []string{
		`{"worker":"w2","max":2}`, `{"worker":"w2"}`, `{"lease_id":1,"worker":"w"}`,
		`{"lease_id":9,"worker":"w"}`, "", "{}", "null", `{"worker":`, `{"max":"x"}`, `{"lease_id":-1}`,
	} {
		f.Add(false, []byte(body))
		f.Add(true, []byte(body))
	}
	f.Add(false, []byte(controlBody("/v1/lease", maxControlBody+1)))
	f.Add(true, []byte(controlBody("/v1/renew", maxControlBody+1)))
	f.Fuzz(func(t *testing.T, renew bool, body []byte) {
		path := "/v1/lease"
		if renew {
			path = "/v1/renew"
		}
		c := leasedCoordinator(t)
		before, stats, pending := statusSnapshot(c), c.Stats(), pendingSnapshot(c)
		rec := httptest.NewRecorder()
		c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		switch code := rec.Code; {
		case code == http.StatusOK:
			if !renew {
				var grant LeaseResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &grant); err != nil {
					t.Fatalf("lease answered 200 with %q: %v", rec.Body, err)
				}
				checkGrant(t, c, pending, grant)
			}
		case code >= 400 && code < 500:
			if !reflect.DeepEqual(statusSnapshot(c), before) || c.Stats() != stats {
				t.Fatalf("%s refused with %d changed the coordinator:\nbefore %+v\nafter  %+v", path, code, before, statusSnapshot(c))
			}
		default:
			t.Fatalf("%s got %d, want 200 or a 4xx", path, code)
		}
	})
}
