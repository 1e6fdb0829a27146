package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/experiments"
)

// fleetPaper runs small paper-grid campaigns through a loopback
// coordinator and two in-process workers. Operation r is one campaign of
// two paper grids at scale 0.05, with seeds CellSeed(seed, 2r) and
// CellSeed(seed, 2r+1). Cells take 5-10 ms, so the lease and return
// round trips and the JSON wire are a visible share of the campaign.
var fleetPaper = &workload{
	name:         "fleet-paper",
	clients:      1,
	roundOps:     1,
	goldenRounds: 4,
	setup: func(ctx context.Context, cfg runConfig, _ int) (instance, error) {
		f := &fleetInstance{
			seed:      cfg.seed,
			opts:      experiments.Options{Seed: cfg.seed, Scale: 0.05 * cfg.scale()},
			transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
		}
		// Warm up on one grid of a campaign no timed phase reaches.
		warm := f.campaign(warmRound)[:27]
		if _, _, err := f.runFleet(ctx, warm, f.transport); err != nil {
			return nil, err
		}
		return f, nil
	},
}

// The coordinator settings: stealing at the CLI's default threshold, and a
// short poll and drain so a campaign's end is not padded by idle waits.
const (
	fleetSteal      = 8
	fleetRetryDelay = 10 * time.Millisecond
	fleetDrainGrace = 30 * time.Millisecond
	fleetGrids      = 2 // paper grids per campaign
)

type fleetInstance struct {
	seed      uint64
	opts      experiments.Options
	transport *http.Transport
}

func (f *fleetInstance) cellsPerOp() int { return 27 * fleetGrids }

func (f *fleetInstance) close() error {
	f.transport.CloseIdleConnections()
	return nil
}

// campaign is operation r's cells in canonical order.
func (f *fleetInstance) campaign(r int) []experiments.Cell {
	var cells []experiments.Cell
	for g := 0; g < fleetGrids; g++ {
		for j := 0; j < 27; j++ {
			c := paperCell(f.seed, (fleetGrids*r+g)*27+j)
			c.Index = len(cells)
			cells = append(cells, c)
		}
	}
	return cells
}

func (f *fleetInstance) op(ctx context.Context, tr *tracer, _ int, i int) ([]byte, error) {
	cells := f.campaign(i)
	var rt http.RoundTripper = f.transport
	if tr != nil {
		op := tr.begin("op", i)
		defer op.end()
		rt = &recordingTransport{base: f.transport, op: op}
	}
	camp, st, err := f.runFleet(ctx, cells, rt)
	if err != nil {
		return nil, err
	}
	for k, o := range camp.Outcomes {
		if err := checkOutcome(cells[k], o, f.opts.Scale); err != nil {
			return nil, err
		}
	}
	if tr != nil {
		countFleet(tr, i, camp, st)
	}
	var buf bytes.Buffer
	if err := camp.WriteCSV(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// countFleet adds a traced campaign's counts. The workers' engines are
// out of reach, so there are no engine events; the interconnect counts
// come back on the wire.
func countFleet(tr *tracer, i int, camp *experiments.Campaign, st dist.Stats) {
	for _, o := range camp.Outcomes {
		tr.countRun(0, o.Ungated)
		tr.countRun(0, o.Gated)
		if i == 0 {
			tr.countModel(o)
		}
	}
	tr.count(func(c *layerCounts) {
		c.steals += st.Steals
		c.duplicates += st.Duplicates
	})
}

// runFleet serves the cells from a coordinator on a loopback port to two
// workers of one simulation goroutine each, and waits for all three.
func (f *fleetInstance) runFleet(ctx context.Context, cells []experiments.Cell, rt http.RoundTripper) (*experiments.Campaign, dist.Stats, error) {
	defer f.transport.CloseIdleConnections()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, dist.Stats{}, err
	}
	var wg sync.WaitGroup
	werrs := make([]error, 2)
	coord, err := dist.NewCoordinator(f.opts, cells, dist.Config{
		StealThreshold: fleetSteal,
		RetryDelay:     fleetRetryDelay,
		DrainGrace:     fleetDrainGrace,
		OnListen: func(addr string) {
			client := &http.Client{Transport: rt, Timeout: 30 * time.Second}
			for k := range werrs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, werrs[k] = dist.Work(ctx, addr, dist.WorkerOptions{Name: fmt.Sprintf("w%d", k), Workers: 1, Client: client})
				}()
			}
		},
	})
	if err != nil {
		ln.Close()
		return nil, dist.Stats{}, err
	}
	camp, err := coord.Serve(ctx, ln)
	if err != nil {
		cancel()
	}
	wg.Wait()
	if err != nil {
		return nil, dist.Stats{}, err
	}
	for k, werr := range werrs {
		if werr != nil {
			return nil, dist.Stats{}, fmt.Errorf("worker %d: %w", k, werr)
		}
	}
	return camp, coord.Stats(), nil
}

// verify runs campaign 0 on one in-process session and compares CSVs.
func (f *fleetInstance) verify(ctx context.Context, round0 [][]byte) error {
	o := f.opts
	o.Workers = 2
	sess := experiments.NewSession(o)
	defer sess.Close()
	cells := f.campaign(0)
	outs, err := sess.RunCells(ctx, cells)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := (&experiments.Campaign{Options: o, Cells: cells, Outcomes: outs}).WriteCSV(&buf); err != nil {
		return err
	}
	if !bytes.Equal(buf.Bytes(), round0[0]) {
		return fmt.Errorf("the fleet's campaign 0 CSV differs from the in-process one")
	}
	return nil
}

func (f *fleetInstance) describe(rep *report) {
	s := rep.cond.Settings
	s["scale"] = strconv.FormatFloat(f.opts.Scale, 'g', -1, 64)
	s["fleet_workers"] = "2x1"
	s["steal_threshold"] = strconv.Itoa(fleetSteal)
	s["retry_delay"] = fleetRetryDelay.String()
	s["drain_grace"] = fleetDrainGrace.String()
}

// recordingTransport times each request to the coordinator as a span
// under the campaign's span, ending when the response body is closed,
// and counts the JSON bytes sent and received.
type recordingTransport struct {
	base http.RoundTripper
	op   *span
}

func (t *recordingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	sp := t.op.child("dist." + strings.TrimPrefix(req.URL.Path, "/v1/"))
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		sp.end()
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, sp: sp, sent: max(req.ContentLength, 0)}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	sp     *span
	sent   int64
	read   int64
	closed bool
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.read += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	if !b.closed {
		b.closed = true
		b.sp.end()
		b.sp.tr.count(func(c *layerCounts) {
			c.requests++
			c.wireBytes += b.sent + b.read
		})
	}
	return b.ReadCloser.Close()
}
