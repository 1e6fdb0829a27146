package experiments

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
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
// campaign identified by fingerprint. The records journalScanner yields
// are loaded for replay; a file written by a campaign with a different
// fingerprint is refused. Whatever follows the last newline, the torn
// write of a killed process, is cut away, and that cell simply re-runs.
func OpenCheckpoint(path, fingerprint string) (*Checkpoint, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("experiments: open checkpoint: %w", err)
	}
	ck := &Checkpoint{f: f, enc: json.NewEncoder(f), done: make(map[string]CellRecord)}
	if err := ck.load(fingerprint); err != nil {
		f.Close()
		return nil, err
	}
	return ck, nil
}

func (ck *Checkpoint) load(fingerprint string) error {
	js := scanJournal(ck.f, ck.f.Name())
	for key, rec, ok := js.next(); ok; key, rec, ok = js.next() {
		ck.done[key] = rec
	}
	hdr, end, err := js.end()
	switch {
	case errors.Is(err, errNoHeader):
		// A fresh file, or one whose header a kill tore: start it over.
	case err != nil:
		return err
	case hdr.Campaign != fingerprint:
		return fmt.Errorf("experiments: checkpoint belongs to campaign %s, this campaign is %s (delete the file or fix the options)",
			hdr.Campaign, fingerprint)
	}
	// Cut the torn tail away: a record appended after it would share its
	// line and be lost on the following resume.
	if err := ck.f.Truncate(end); err != nil {
		return fmt.Errorf("experiments: checkpoint truncate torn tail: %w", err)
	}
	if _, err := ck.f.Seek(end, io.SeekStart); err != nil {
		return fmt.Errorf("experiments: checkpoint seek: %w", err)
	}
	if end > 0 {
		return nil
	}
	// Write the header, so that any later resume is validated.
	if err := ck.enc.Encode(checkpointHeader{Version: checkpointVersion, Campaign: fingerprint}); err != nil {
		return fmt.Errorf("experiments: checkpoint write: %w", err)
	}
	return nil
}

// MaxJournalLine bounds one journal line, and so one record:
// journalScanner skips a longer line, and the distributed coordinator
// bounds a return at one line per cell of a lease. No record comes near
// it: with 128 processors on the interconnect with the most links, the
// longest built-in names and every number at its widest, a record takes
// about 180 KB, and a real 128-processor mesh record about 80 KB.
const MaxJournalLine = 1 << 20

// errNoHeader reports a journal without a complete first line: an empty
// file, or one whose header a kill tore.
var errNoHeader = errors.New("no complete header line")

// journalScanner is the one reader of the journal format, behind both
// checkpoint replay and ReadJournal. scanJournal decodes the header line
// and checks its version (the campaign fingerprint is left to the
// caller). next then yields each record line that journalRecord
// accepts, with the record's cell key, and skips any other line,
// including one longer than MaxJournalLine, through its newline. Errors
// name the journal once, as name.
//
// A line counts only once its newline has been read. Checkpoint.Record
// writes a record and its newline in one Write, so a line without its
// newline is a torn write, dropped even when its bytes would decode. end
// returns the offset just past the last newline, where the complete
// lines stop; a journal with no complete first line ends in errNoHeader.
type journalScanner struct {
	sc    *bufio.Scanner
	lines lineSplitter
	name  string
	hdr   checkpointHeader
	err   error // a corrupt header or a foreign version
}

func scanJournal(r io.Reader, name string) *journalScanner {
	js := &journalScanner{sc: bufio.NewScanner(r), name: name}
	js.sc.Buffer(make([]byte, 0, 1<<16), MaxJournalLine)
	js.sc.Split(js.lines.split)
	if js.sc.Scan() {
		if err := json.Unmarshal(js.sc.Bytes(), &js.hdr); err != nil {
			js.err = fmt.Errorf("experiments: journal %s: header corrupt: %w", name, err)
		} else if js.hdr.Version != checkpointVersion {
			js.err = fmt.Errorf("experiments: journal %s: version %d, want %d", name, js.hdr.Version, checkpointVersion)
		}
	}
	return js
}

// next returns the next record that counts, or ok false once none is left.
func (js *journalScanner) next() (key string, rec CellRecord, ok bool) {
	for js.err == nil && js.sc.Scan() {
		if key, rec, ok = journalRecord(js.sc.Bytes()); ok {
			return key, rec, true
		}
	}
	return "", CellRecord{}, false
}

// end returns the header and the offset just past the last newline, or
// the scan's error.
func (js *journalScanner) end() (checkpointHeader, int64, error) {
	if js.err != nil {
		return js.hdr, 0, js.err
	}
	if err := js.sc.Err(); err != nil {
		return js.hdr, 0, fmt.Errorf("experiments: journal %s: read: %w", js.name, err)
	}
	if js.lines.end == 0 {
		return js.hdr, 0, fmt.Errorf("experiments: journal %s: %w", js.name, errNoHeader)
	}
	return js.hdr, js.lines.end, nil
}

// lineSplitter splits a journal into its newline-terminated lines, for a
// bufio.Scanner whose buffer is capped at MaxJournalLine. A line too
// long for the buffer is discarded through its newline and scans as an
// empty line, which decodes as nothing; bytes after the last newline
// never become a line.
type lineSplitter struct {
	end     int64 // offset just past the last newline
	partial int64 // bytes of an over-long line discarded since then
}

func (l *lineSplitter) split(data []byte, atEOF bool) (int, []byte, error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		line := data[:i]
		if l.partial > 0 {
			line = data[:0]
		}
		l.end += l.partial + int64(i+1)
		l.partial = 0
		return i + 1, line, nil
	}
	if l.partial > 0 || len(data) >= MaxJournalLine {
		l.partial += int64(len(data))
		return len(data), nil, nil
	}
	return 0, nil, nil // wait for the newline, or at EOF drop the unterminated tail
}

// journalRecord decodes one record line of a journal and returns the
// record with its cell key. ok is false for a line that does not decode
// or whose record fails Validate; journalScanner skips such a line.
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
