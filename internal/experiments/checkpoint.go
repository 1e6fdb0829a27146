package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/core"
	"repro/internal/energy"
)

// The checkpoint sink persists per-cell results as JSONL so an
// interrupted campaign restarts at the first incomplete cell. The file
// starts with a header line pinning the campaign's options fingerprint;
// each later line is one completed cell, serialized as a CellRecord (see
// wire.go — the same record the distributed fabric puts on the wire).
// Integers and shortest-form floats round-trip through JSON exactly, so
// a resumed campaign's output is byte-identical to an uninterrupted one.

// checkpointVersion guards the on-disk format. Version 2 added the
// interconnect counters (RunRecord.Bus/BankBus) that back the CSV's
// bus/bank stat columns. Version 3 added the topology axis to the cell
// key and the campaign fingerprint: a v2 file's keys cannot distinguish
// a mesh cell from a bus cell, so replaying one under the new axis could
// restore the wrong machine's timings. A file written at another version
// is refused with an error naming both versions — delete it (or keep the
// old binary) to proceed.
const checkpointVersion = 3

type checkpointHeader struct {
	Version  int    `json:"version"`
	Campaign string `json:"campaign"`
}

// cellKey identifies a cell for checkpoint lookup: exactly the fields
// that change what the cell computes — not Index (positional metadata)
// and not ID (a scenario label); two sweeps sharing a checkpoint file
// replay any cell that computes the same paired run. The W0 and
// contention sentinels are normalized to the defaults they select
// (W0 0 runs the default window, empty contention runs base), so cells
// agree regardless of which sweep spelled the default out. Banks is part
// of the key: unlike the trace cache (which correctly ignores it — the
// interconnect shape never changes the workload), the checkpoint stores
// cycle-level results, and cells differing only in interconnect shape
// compute different timings. Banks=0 and Banks=1 stay distinct on
// purpose: their cycle-equivalence is a tested property of the engine,
// not an identity the persistence layer may assume.
// Tech is also part of the key (normalized so "" and the default name
// agree): two cells differing only in technology point record identical
// timings but price to different energy columns, and replaying one as the
// other would silently mislabel results. Re-pricing across techs is the
// reprice engine's explicit job (reprice.go), not a key collision.
// Topology is part of the key for the same reason as Banks, with its
// sentinels normalized the same way as Tech's: "" and "bus" both name
// the default bus machine and collide on purpose, while explicit shapes
// ("mesh:1x1" included) stay distinct — their cycle-equivalence to the
// bus is a tested property, not a persistence-layer identity.
func cellKey(c Cell) string {
	return fmt.Sprintf("%s|%d|%d|%s|%s|%d|banks=%d|tech=%s|topology=%s",
		c.App, c.Processors, c.effectiveW0(), c.contentionOrBase(), c.Variant, c.Seed, c.Banks,
		energy.CanonicalName(c.Tech), canonicalTopology(c.Topology))
}

// canonicalTopology normalizes the topology sentinels for keys and
// fingerprints: "" and "bus" both select the default bus machine, so
// they must agree. Explicit specs pass through verbatim — for parsed
// canonical forms see bus.Topology.String.
func canonicalTopology(topology string) string {
	if topology == "" {
		return "bus"
	}
	return topology
}

// Checkpoint is a JSONL result sink attached to a Session. It is safe for
// concurrent use by the session's workers.
type Checkpoint struct {
	mu       sync.Mutex
	f        *os.File
	enc      *json.Encoder
	done     map[string]CellRecord
	restored int
}

// OpenCheckpoint opens (or creates) the checkpoint file at path for the
// campaign identified by fingerprint. Existing records are loaded for
// replay; a file written by a campaign with a different fingerprint is
// refused. A truncated final line — the signature of a killed process —
// is tolerated and dropped; that cell simply re-runs.
func OpenCheckpoint(path, fingerprint string) (*Checkpoint, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("experiments: open checkpoint: %w", err)
	}
	ck := &Checkpoint{f: f, done: make(map[string]CellRecord)}
	if err := ck.load(fingerprint); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("experiments: checkpoint seek: %w", err)
	}
	ck.enc = json.NewEncoder(f)
	return ck, nil
}

func (ck *Checkpoint) load(fingerprint string) error {
	raw, err := io.ReadAll(ck.f)
	if err != nil {
		return fmt.Errorf("experiments: checkpoint read: %w", err)
	}
	if len(raw) == 0 {
		// Fresh file: write the header so any later resume is validated.
		hdr, err := json.Marshal(checkpointHeader{Version: checkpointVersion, Campaign: fingerprint})
		if err != nil {
			return err
		}
		_, err = ck.f.Write(append(hdr, '\n'))
		return err
	}
	// A file not ending in '\n' was torn by a mid-write kill. Truncate
	// the fragment away — appending after it would glue the next record
	// onto the same physical line and silently lose it on the following
	// resume.
	if raw[len(raw)-1] != '\n' {
		cut := bytes.LastIndexByte(raw, '\n') + 1
		if err := ck.f.Truncate(int64(cut)); err != nil {
			return fmt.Errorf("experiments: checkpoint truncate torn tail: %w", err)
		}
		raw = raw[:cut]
		if len(raw) == 0 {
			// Even the header was torn: rewrite it.
			hdr, err := json.Marshal(checkpointHeader{Version: checkpointVersion, Campaign: fingerprint})
			if err != nil {
				return err
			}
			_, err = ck.f.WriteAt(append(hdr, '\n'), 0)
			return err
		}
	}
	first, rest, _ := bytes.Cut(raw, []byte("\n"))
	var hdr checkpointHeader
	if err := json.Unmarshal(first, &hdr); err != nil {
		return fmt.Errorf("experiments: checkpoint header corrupt: %w", err)
	}
	if hdr.Version != checkpointVersion {
		return fmt.Errorf("experiments: checkpoint version %d, want %d", hdr.Version, checkpointVersion)
	}
	if hdr.Campaign != fingerprint {
		return fmt.Errorf("experiments: checkpoint belongs to campaign %s, this campaign is %s (delete the file or fix the options)",
			hdr.Campaign, fingerprint)
	}
	for line := range bytes.Lines(rest) {
		// A corrupt interior line is skipped, and its cell re-runs.
		if key, rec, ok := journalRecord(bytes.TrimSuffix(line, []byte("\n"))); ok {
			ck.done[key] = rec
		}
	}
	return nil
}

// journalRecord decodes one record line of a journal and returns the
// record with its cell key. ok is false for a line that does not decode
// or whose record fails Validate — a corrupt interior line or a torn
// tail. The journal reader and checkpoint replay both skip such lines
// through this one function, so they tolerate exactly the same input.
func journalRecord(line []byte) (key string, rec CellRecord, ok bool) {
	if rec.UnmarshalJSON(line) != nil || rec.Validate() != nil {
		return "", CellRecord{}, false
	}
	return cellKey(rec.Cell), rec, true
}

// Lookup returns the recorded outcome for an identical cell, if present.
func (ck *Checkpoint) Lookup(c Cell) (*core.Outcome, bool) {
	ck.mu.Lock()
	rec, ok := ck.done[cellKey(c)]
	if ok {
		ck.restored++
	}
	ck.mu.Unlock()
	if !ok {
		return nil, false
	}
	return rec.Outcome(), true
}

// Record appends one completed cell. Each record is a single Write to the
// underlying file, so a kill between cells never tears more than the
// final line.
func (ck *Checkpoint) Record(c Cell, out *core.Outcome) error {
	rec := NewCellRecord(c, out)
	ck.mu.Lock()
	defer ck.mu.Unlock()
	if err := ck.enc.Encode(rec); err != nil {
		return fmt.Errorf("experiments: checkpoint write: %w", err)
	}
	ck.done[cellKey(c)] = rec
	return nil
}

// Len returns the number of completed cells on record.
func (ck *Checkpoint) Len() int {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	return len(ck.done)
}

// Restored returns how many lookups were served from the file — the cells
// this process did not have to re-run.
func (ck *Checkpoint) Restored() int {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	return ck.restored
}

// Close flushes and closes the file.
func (ck *Checkpoint) Close() error {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	return ck.f.Close()
}
