package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/experiments"
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
// the journal line bound. A valid return merges; the same return padded
// with JSON whitespace to one byte over the bound is refused with 413,
// unread, and merges nothing.
func TestCoordinatorBoundsReturnBody(t *testing.T) {
	body, err := json.Marshal(ReturnRequest{Worker: "w", Results: computedReturns(t)[:1]})
	if err != nil {
		t.Fatal(err)
	}
	head, tail := body[:len(body)-1], body[len(body)-1:] // pad before the closing brace
	for _, tc := range []struct {
		name     string
		size     int64
		code     int
		returned int
	}{
		{"unpadded", int64(len(body)), http.StatusOK, 1},
		{"one byte over the bound", experiments.MaxJournalLine + 1, http.StatusRequestEntityTooLarge, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newReturnCoordinator(t)
			before := statusSnapshot(c)
			req := httptest.NewRequest(http.MethodPost, "/v1/return",
				io.MultiReader(bytes.NewReader(head), &spaces{n: tc.size - int64(len(body))}, bytes.NewReader(tail)))
			req.ContentLength = tc.size
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
