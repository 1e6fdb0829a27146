package experiments

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/stamp"
	"repro/internal/workload"
)

// TestStreamDeliversEveryCell checks the streaming form covers the cell
// set exactly once, with positions mapping back to the input slice.
func TestStreamDeliversEveryCell(t *testing.T) {
	o := quickOptions()
	o.Workers = 4
	s := NewSession(o)
	defer s.Close()
	cells := o.Cells()
	seen := make([]bool, len(cells))
	for res, err := range s.Stream(context.Background(), cells) {
		if err != nil {
			t.Fatal(err)
		}
		if res.Pos < 0 || res.Pos >= len(cells) {
			t.Fatalf("position %d out of range", res.Pos)
		}
		if seen[res.Pos] {
			t.Fatalf("cell %d delivered twice", res.Pos)
		}
		seen[res.Pos] = true
		if res.Cell != cells[res.Pos] {
			t.Fatalf("result %d carries the wrong cell", res.Pos)
		}
		if res.Outcome == nil {
			t.Fatalf("cell %d has no outcome", res.Pos)
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("cell %d never delivered", i)
		}
	}
}

// TestStreamCancelledContext checks a pre-cancelled context yields
// ctx.Err() immediately and runs nothing.
func TestStreamCancelledContext(t *testing.T) {
	o := quickOptions()
	s := NewSession(o)
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var final error
	delivered := 0
	for res, err := range s.Stream(ctx, o.Cells()) {
		if err != nil {
			final = err
			if res.Pos != -1 {
				t.Fatalf("cancellation result carries position %d", res.Pos)
			}
			continue
		}
		delivered++
	}
	if !errors.Is(final, context.Canceled) {
		t.Fatalf("final error %v, want context.Canceled", final)
	}
	if delivered != 0 {
		t.Fatalf("%d cells delivered despite pre-cancelled context", delivered)
	}
}

// TestStreamCancelMidFlight cancels after the first delivery: the stream
// must end promptly with ctx.Err() even though a full campaign remains
// queued, because the simulators poll the context inside a run.
func TestStreamCancelMidFlight(t *testing.T) {
	o := Options{Seed: 42, Scale: 1.0, Workers: 2} // full-scale: plenty left to cancel
	s := NewSession(o)
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Now()
	var final error
	delivered := 0
	for res, err := range s.Stream(ctx, o.Cells()) {
		if err != nil {
			final = err
			continue
		}
		_ = res
		if delivered++; delivered == 1 {
			cancel()
		}
	}
	if !errors.Is(final, context.Canceled) {
		t.Fatalf("final error %v, want context.Canceled", final)
	}
	// Generous bound: the point is "does not run the remaining ~9-cell
	// full-scale campaign to completion", which takes tens of seconds.
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancelled stream took %v to return", elapsed)
	}
}

// TestRunCellsCancelledContext checks the batch form surfaces ctx.Err().
func TestRunCellsCancelledContext(t *testing.T) {
	o := quickOptions()
	s := NewSession(o)
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RunCells(ctx, o.Cells()); !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
}

// TestStreamEarlyBreakCancelsRemainder checks that abandoning the
// iterator neither deadlocks the pool nor leaks: a later sweep on the
// same session still works.
func TestStreamEarlyBreakCancelsRemainder(t *testing.T) {
	o := quickOptions()
	o.Workers = 2
	s := NewSession(o)
	defer s.Close()
	for res, err := range s.Stream(context.Background(), o.Cells()) {
		if err != nil {
			t.Fatal(err)
		}
		_ = res
		break
	}
	// The pool must be free again: a full batch run completes.
	outs, err := s.RunCells(context.Background(), o.Cells())
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(o.Cells()) {
		t.Fatalf("%d outcomes after early break", len(outs))
	}
}

// TestTraceCacheSharesGeneration checks the session generates one trace
// per (app, threads, scale, contention, seed) and shares the pointer
// across cells that differ only in W0 or variant — the Fig7/ablation
// case the ROADMAP calls out.
func TestTraceCacheSharesGeneration(t *testing.T) {
	o := Options{Seed: 42, Scale: 0.05}
	s := NewSession(o)
	defer s.Close()
	a, err := s.cachedTrace(Cell{App: "intruder", Processors: 4, W0: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.cachedTrace(Cell{App: "intruder", Processors: 4, W0: 32, Seed: 42, Variant: VariantRenewalOff})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same workload key produced distinct traces across W0/variant")
	}
	c, err := s.cachedTrace(Cell{App: "intruder", Processors: 4, W0: 2, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("different seeds shared one trace")
	}

	// And the cached trace is byte-equivalent to an uncached generation.
	o.NoTraceCache = true
	s2 := NewSession(o)
	defer s2.Close()
	fresh, err := s2.cachedTrace(Cell{App: "intruder", Processors: 4, W0: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if fresh == a {
		t.Fatal("NoTraceCache returned the cached pointer")
	}
	if fresh.TotalTxs() != a.TotalTxs() || len(fresh.Threads) != len(a.Threads) {
		t.Fatal("cached and fresh traces differ")
	}
}

// TestVariantConfigure checks the named-variant registry accepts the
// known deviations and rejects junk.
func TestVariantConfigure(t *testing.T) {
	for _, v := range []string{"", "renewal=off", "policy=gating-aware",
		"policy=exponential", "policy=linear", "policy=fixed"} {
		if _, err := variantConfigure(v); err != nil {
			t.Errorf("variant %q rejected: %v", v, err)
		}
	}
	for _, v := range []string{"policy=bogus", "nonsense", "renewal=on"} {
		if _, err := variantConfigure(v); err == nil {
			t.Errorf("variant %q accepted", v)
		}
	}
}

// checkpointCSV runs the campaign with a checkpoint attached and returns
// its CSV, cancelling after `stopAfter` streamed cells when positive.
func checkpointCSV(t *testing.T, o Options, path string, stopAfter int) (string, bool) {
	t.Helper()
	s := NewSession(o)
	defer s.Close()
	if err := s.SetCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cells := o.Cells()
	outs := make([]*CellResult, len(cells))
	delivered := 0
	interrupted := false
	for res, err := range s.Stream(ctx, cells) {
		if err != nil {
			if errors.Is(err, context.Canceled) {
				interrupted = true
				break
			}
			t.Fatal(err)
		}
		res := res
		outs[res.Pos] = &res
		if delivered++; stopAfter > 0 && delivered == stopAfter {
			cancel() // the "kill": completed cells are already on disk
		}
	}
	if interrupted {
		return "", true
	}
	campaign := &Campaign{Options: o, Cells: cells}
	for _, r := range outs {
		if r == nil {
			t.Fatal("stream dropped a cell")
		}
		campaign.Outcomes = append(campaign.Outcomes, r.Outcome)
	}
	var b strings.Builder
	if err := campaign.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.String(), false
}

// TestCheckpointKillAndResumeGolden is the kill-and-resume golden test:
// a campaign interrupted mid-stream and resumed from its checkpoint file
// must produce byte-identical CSV to an uninterrupted run, restoring the
// already-completed cells instead of re-running them.
func TestCheckpointKillAndResumeGolden(t *testing.T) {
	o := quickOptions()
	o.Workers = 2

	// Golden: uninterrupted, no checkpoint involved.
	golden := campaignCSV(t, o)

	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.jsonl")

	// First attempt: cancel after one completed cell.
	if _, interrupted := checkpointCSV(t, o, path, 1); !interrupted {
		t.Fatal("first attempt was not interrupted")
	}

	// The file must already hold at least the completed cell.
	ck, err := OpenCheckpoint(path, o.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	onDisk := ck.Len()
	ck.Close()
	if onDisk == 0 {
		t.Fatal("no cells checkpointed before the kill")
	}

	// Resume: same options, same file — must complete and match golden.
	s := NewSession(o)
	defer s.Close()
	if err := s.SetCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	campaign, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Checkpoint().Restored(); got != onDisk {
		t.Fatalf("resume restored %d cells, checkpoint held %d", got, onDisk)
	}
	var b strings.Builder
	if err := campaign.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != golden {
		t.Fatalf("resumed campaign CSV diverged from uninterrupted run:\n--- golden ---\n%s\n--- resumed ---\n%s",
			golden, b.String())
	}
}

// TestCheckpointRefusesForeignCampaign checks the fingerprint guard.
func TestCheckpointRefusesForeignCampaign(t *testing.T) {
	o := quickOptions()
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	ck, err := OpenCheckpoint(path, o.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	ck.Close()
	other := o
	other.Seed++
	if _, err := OpenCheckpoint(path, other.Fingerprint()); err == nil {
		t.Fatal("checkpoint accepted a different campaign's fingerprint")
	}
	// Worker count must NOT change the fingerprint: parallelism cannot
	// change results, so it must not block a resume.
	parallel := o
	parallel.Workers = 16
	if ck, err := OpenCheckpoint(path, parallel.Fingerprint()); err != nil {
		t.Fatalf("worker count changed the fingerprint: %v", err)
	} else {
		ck.Close()
	}
}

// TestCheckpointToleratesTornTail simulates a kill mid-write: a torn
// final line is dropped and its cell re-runs, while intact records
// survive.
func TestCheckpointToleratesTornTail(t *testing.T) {
	o := quickOptions()
	o.Workers = 1
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")

	// Complete the full campaign into the checkpoint.
	if _, interrupted := checkpointCSV(t, o, path, 0); interrupted {
		t.Fatal("unexpected interruption")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) != len(o.Cells())+1 { // header + one line per cell
		t.Fatalf("%d checkpoint lines for %d cells", len(lines), len(o.Cells()))
	}
	// Tear the final record in half.
	torn := strings.Join(lines[:len(lines)-1], "\n") + "\n" + lines[len(lines)-1][:10]
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	ck, err := OpenCheckpoint(path, o.Fingerprint())
	if err != nil {
		t.Fatalf("torn checkpoint refused: %v", err)
	}
	defer ck.Close()
	if got, want := ck.Len(), len(o.Cells())-1; got != want {
		t.Fatalf("torn checkpoint holds %d cells, want %d", got, want)
	}
}

// TestCheckpointResumedAblationRePrices is the regression test for
// restored ledgers: the SRPG ablation re-prices its paired run's ledgers
// under different power models, so a checkpoint-restored outcome must
// carry a ledger whose whole-run residency reproduces the original
// energy figures exactly (not panic, not drift).
func TestCheckpointResumedAblationRePrices(t *testing.T) {
	o := tinyOptions()
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")

	fresh := NewSession(o)
	defer fresh.Close()
	if err := fresh.SetCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Ablations(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	resumed := NewSession(o)
	defer resumed.Close()
	if err := resumed.SetCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	got, err := resumed.Ablations(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Checkpoint().Restored() == 0 {
		t.Fatal("resumed ablations re-ran every cell")
	}
	if got != want {
		t.Fatalf("resumed ablation tables diverged:\n--- fresh ---\n%s\n--- resumed ---\n%s", want, got)
	}
}

// TestCheckpointTornTailAppendsCleanly checks that after a torn-tail
// load, the next Record starts on a fresh line instead of gluing onto
// the fragment (which would silently lose that record on the following
// resume).
func TestCheckpointTornTailAppendsCleanly(t *testing.T) {
	o := quickOptions()
	o.Workers = 1
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	if _, interrupted := checkpointCSV(t, o, path, 0); interrupted {
		t.Fatal("unexpected interruption")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record in half (no trailing newline).
	torn := raw[:len(raw)-20]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	// Re-running the campaign against the torn file must re-complete the
	// torn cell and leave a file every cell loads cleanly from.
	s := NewSession(o)
	defer s.Close()
	if err := s.SetCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.Close()

	ck, err := OpenCheckpoint(path, o.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	if got, want := ck.Len(), len(o.Cells()); got != want {
		t.Fatalf("after torn-tail re-run the checkpoint holds %d cells, want %d", got, want)
	}
}

// TestFingerprintNormalizesSentinels checks the zero-value sentinels
// (Scale 0 ~ 1.0, W0 0 ~ default window) do not invalidate a resume, and
// that the fields that do change results still change the fingerprint.
func TestFingerprintNormalizesSentinels(t *testing.T) {
	base := Options{Seed: 42}
	spelled := Options{Seed: 42, Scale: 1.0, W0: matrixDefaultW0}
	if base.Fingerprint() != spelled.Fingerprint() {
		t.Fatal("spelling out the defaults changed the fingerprint")
	}
	for name, o := range map[string]Options{
		"seed":  {Seed: 43},
		"scale": {Seed: 42, Scale: 0.5},
		"w0":    {Seed: 42, W0: 2},
	} {
		if o.Fingerprint() == base.Fingerprint() {
			t.Errorf("%s change did not alter the fingerprint", name)
		}
	}
}

// TestOptionsFingerprintPinned pins the fingerprint bytes themselves:
// checkpoints and /v1/campaign handshakes written by other builds carry
// them, so editing Options must not move any value here. The second row
// sets every field the fingerprint reads; it need not be a runnable
// campaign (a fabric topology with banks fails validation).
func TestOptionsFingerprintPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		o    Options
		want string
	}{
		{"DefaultOptions", DefaultOptions(), "4556974aab3a5a06"},
		{"every result-relevant field", Options{
			Seed:       7,
			Scale:      0.25,
			Processors: []int{8, 64},
			Apps:       []stamp.App{stamp.Intruder, stamp.Vacation},
			W0:         16,
			Banks:      4,
			Topology:   "mesh:2x4",
			Tech:       "t45",
		}, "28c1427557782625"},
	} {
		if got := tc.o.Fingerprint(); got != tc.want {
			t.Errorf("%s: fingerprint %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestCellKeyNormalizesSentinels checks cells that compute the same
// paired run share a checkpoint record even when one spells the defaults
// out or carries sweep-local metadata (Index, ID).
func TestCellKeyNormalizesSentinels(t *testing.T) {
	a := Cell{Index: 0, App: "genome", Processors: 4, Seed: 42}
	b := Cell{Index: 7, ID: "M00042", App: "genome", Processors: 4,
		W0: matrixDefaultW0, Contention: ContentionBase, Seed: 42}
	if cellKey(a) != cellKey(b) {
		t.Fatalf("equivalent cells key differently:\n%s\n%s", cellKey(a), cellKey(b))
	}
	for name, c := range map[string]Cell{
		"w0":         {App: "genome", Processors: 4, W0: 2, Seed: 42},
		"contention": {App: "genome", Processors: 4, Contention: ContentionHigh, Seed: 42},
		"variant":    {App: "genome", Processors: 4, Seed: 42, Variant: VariantRenewalOff},
		"seed":       {App: "genome", Processors: 4, Seed: 43},
		"app":        {App: "yada", Processors: 4, Seed: 42},
		"processors": {App: "genome", Processors: 8, Seed: 42},
	} {
		if cellKey(c) == cellKey(a) {
			t.Errorf("%s change did not alter the cell key", name)
		}
	}
}

// TestTraceCacheBounded checks the cache evicts above its cap instead of
// growing without limit, and that an evicted key still regenerates.
func TestTraceCacheBounded(t *testing.T) {
	o := Options{Seed: 1, Scale: 0.02}
	s := NewSession(o)
	defer s.Close()
	for seed := uint64(0); seed < retainedEntries+16; seed++ {
		if _, err := s.cachedTrace(Cell{App: "intruder", Processors: 2, Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(traceCacheKeys(s)); n > retainedEntries {
		t.Fatalf("cache holds %d entries, cap is %d", n, retainedEntries)
	}
	// Any key — evicted or not — still resolves.
	if _, err := s.cachedTrace(Cell{App: "intruder", Processors: 2, Seed: 0}); err != nil {
		t.Fatal(err)
	}
}

// cachedTrace provisions c's trace through the session cache as a
// one-cell call does: holding c's entry for the request.
func (s *Session) cachedTrace(c Cell) (*workload.Trace, error) {
	e := s.holdEntries([]Cell{c})[0]
	defer s.release(e)
	return s.trace(c, e)
}

// traceCacheKeys returns the trace keys the cache keeps entries for.
func traceCacheKeys(s *Session) map[TraceKey]bool {
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	out := make(map[TraceKey]bool, len(s.cache))
	for k := range s.cache {
		out[k] = true
	}
	return out
}

func traceCellForSeed(seed uint64) Cell {
	return Cell{App: stamp.Intruder, Processors: 1, Seed: seed, Contention: ContentionBase}
}

// TestTraceCacheLRUEvictsLeastRecentAmongEqualReuse: the cache is plain
// LRU over the entries no call holds, however often each was reused.
func TestTraceCacheLRUEvictsLeastRecentAmongEqualReuse(t *testing.T) {
	s := NewSession(Options{Seed: 1, Scale: 0.01})
	defer s.Close()
	// Fill exactly to the bound with single-use keys.
	for i := 0; i < retainedEntries; i++ {
		if _, err := s.cachedTrace(traceCellForSeed(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Refresh key 0, making it the most recent; the victim of the next
	// key must be key 1, now the least recent.
	if _, err := s.cachedTrace(traceCellForSeed(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.cachedTrace(traceCellForSeed(9999)); err != nil {
		t.Fatal(err)
	}
	keys := traceCacheKeys(s)
	mk := func(seed uint64) TraceKey {
		return TraceKey{app: stamp.Intruder, threads: 1, scale: 0.01, contention: ContentionBase, seed: seed}
	}
	if keys[mk(1)] {
		t.Fatal("least-recently-used single-use key survived")
	}
	if !keys[mk(0)] || !keys[mk(2)] || !keys[mk(9999)] {
		t.Fatal("wrong victim chosen by LRU policy")
	}
}

// TestTraceCacheEvictionPreservesResults: eviction may only cost
// regeneration, never change what a cell runs.
func TestTraceCacheEvictionPreservesResults(t *testing.T) {
	s := NewSession(Options{Seed: 1, Scale: 0.01})
	defer s.Close()
	c := traceCellForSeed(5)
	before, err := s.cachedTrace(c)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < retainedEntries+8; i++ {
		if _, err := s.cachedTrace(traceCellForSeed(2000 + uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	after, err := s.cachedTrace(c) // regenerated after eviction
	if err != nil {
		t.Fatal(err)
	}
	if before.TotalTxs() != after.TotalTxs() || len(before.Threads) != len(after.Threads) {
		t.Fatal("regenerated trace differs from original")
	}
}
