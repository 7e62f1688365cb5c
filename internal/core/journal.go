package core

// This file implements the crash-safe run journal behind
// `lmbench -journal` / `lmbench -resume`. The scheduler appends one
// checksummed JSON line per completed (machine, experiment-group)
// unit as it finishes, so a run killed mid-suite — ^C, kill -9, OOM —
// loses only the experiment that was in flight. Resuming replays the
// journaled results into the database and re-runs the remainder; the
// resumed database encodes byte-identically to an uninterrupted run
// because replay happens at the same place in the suite's
// deterministic iteration order as live execution.
//
// Format: a comment header line, then one record per line:
//
//	<crc32-hex> <json>
//
// The checksum covers the JSON payload. A torn final line — the
// in-flight write a crash cut short — fails its checksum (or does not
// parse) and is tolerated; corruption anywhere earlier is an error.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/results"
)

const journalHeader = "# lmbench-go journal v1"

// JournalRecord is one completed unit of suite work: the entries (or
// the skip) produced by one experiment-group run on one machine.
type JournalRecord struct {
	// Machine is the machine's results-database name.
	Machine string `json:"machine"`
	// Key is the experiment's run key (Experiment.RunKey, or the ID
	// when it runs alone): the unit of execution and of replay.
	Key string `json:"key"`
	// Skipped records an ErrUnsupported outcome; Err carries its text.
	Skipped bool   `json:"skipped,omitempty"`
	Err     string `json:"error,omitempty"`
	// Entries are the database entries the run produced, in order.
	Entries []results.Entry `json:"entries,omitempty"`
}

type journalKey struct{ machine, key string }

// Journal is an open run journal: the records an earlier run left in
// the file, which this run replays instead of re-executing, plus the
// append stream for this run's own records. Lookup sees only the
// records read at open, so it needs no lock. Record is safe for
// concurrent use and emits each record as a single synced Write, so a
// crash can tear at most the final line.
type Journal struct {
	recs  map[journalKey]JournalRecord
	mu    sync.Mutex
	f     *os.File
	bytes atomic.Int64
}

// OpenJournal opens the journal at path with create-or-resume
// semantics. A new or empty file starts a fresh journal. A file that
// holds records keeps them for replay, loses a torn final line, and
// is appended to past its last valid record, so a resumed run that
// crashes again is itself resumable. Serial, parallel and fleet runs
// write the identical format and can resume one another's journals.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	j, err := resumeJournal(f)
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return j, nil
}

// resumeJournal reads f's records, truncates whatever follows the last
// valid one, and positions f for appending; an empty f gets the header.
func resumeJournal(f *os.File) (*Journal, error) {
	recs, valid, err := readJournal(f)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(valid); err != nil {
		return nil, err
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		return nil, err
	}
	if valid == 0 {
		if _, err := io.WriteString(f, journalHeader+"\n"); err != nil {
			return nil, fmt.Errorf("core: journal header: %w", err)
		}
	}
	return &Journal{recs: recs, f: f}, nil
}

// Len returns the number of records read at open.
func (j *Journal) Len() int { return len(j.recs) }

// Lookup returns the record read at open for (machine, run key).
func (j *Journal) Lookup(machine, key string) (JournalRecord, bool) {
	rec, ok := j.recs[journalKey{machine, key}]
	return rec, ok
}

// Record appends one record and syncs it to stable storage.
func (j *Journal) Record(rec JournalRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("core: journal encode: %w", err)
	}
	line := fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE(b), b)
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := io.WriteString(j.f, line); err != nil {
		return fmt.Errorf("core: journal write: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("core: journal sync: %w", err)
	}
	j.bytes.Add(int64(len(line)))
	return nil
}

// BytesWritten reports the cumulative record bytes this run has
// durably appended (header excluded). Safe to read concurrently with
// Record — it feeds the observability layer's journal gauge.
func (j *Journal) BytesWritten() int64 { return j.bytes.Load() }

// Close closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// readJournal parses a journal stream into its records and the byte
// offset just past the last valid one. A torn final line (truncated
// mid-write by a crash) is dropped; a checksum or parse failure on any
// earlier line is corruption and an error. An empty stream yields no
// records.
func readJournal(r io.Reader) (map[journalKey]JournalRecord, int64, error) {
	br := bufio.NewReader(r)
	recs := map[journalKey]JournalRecord{}
	var offset int64
	lineNo := 0
	sawHeader := false
	for {
		line, err := br.ReadString('\n')
		if err != nil && err != io.EOF {
			return nil, 0, fmt.Errorf("core: journal read: %w", err)
		}
		if line == "" {
			break
		}
		if err == io.EOF {
			// Unterminated final line: the write a crash cut short.
			// Drop it — even if it happens to parse, keeping it would
			// leave the file without a trailing newline and corrupt
			// the next appended record. Resume re-runs that unit.
			break
		}
		lineNo++
		rec, perr := parseJournalLine(line, lineNo, &sawHeader)
		if perr != nil {
			return nil, 0, perr
		}
		if rec != nil {
			recs[journalKey{rec.Machine, rec.Key}] = *rec
		}
		offset += int64(len(line))
	}
	return recs, offset, nil
}

// parseJournalLine parses one journal line; nil record for header and
// blank lines.
func parseJournalLine(line string, lineNo int, sawHeader *bool) (*JournalRecord, error) {
	trimmed := strings.TrimRight(line, "\n")
	if trimmed == "" {
		return nil, nil
	}
	if strings.HasPrefix(trimmed, "#") {
		if trimmed == journalHeader {
			*sawHeader = true
			return nil, nil
		}
		return nil, fmt.Errorf("core: journal line %d: unknown header %q", lineNo, trimmed)
	}
	if !*sawHeader {
		return nil, fmt.Errorf("core: journal line %d: missing %q header", lineNo, journalHeader)
	}
	sum, payload, ok := strings.Cut(trimmed, " ")
	if !ok {
		return nil, fmt.Errorf("core: journal line %d: no checksum separator", lineNo)
	}
	want, err := strconv.ParseUint(sum, 16, 32)
	if err != nil {
		return nil, fmt.Errorf("core: journal line %d: bad checksum field: %w", lineNo, err)
	}
	if got := crc32.ChecksumIEEE([]byte(payload)); got != uint32(want) {
		return nil, fmt.Errorf("core: journal line %d: checksum mismatch (%08x != %08x)", lineNo, got, want)
	}
	var rec JournalRecord
	if err := json.Unmarshal([]byte(payload), &rec); err != nil {
		return nil, fmt.Errorf("core: journal line %d: %w", lineNo, err)
	}
	if rec.Machine == "" || rec.Key == "" {
		return nil, fmt.Errorf("core: journal line %d: record needs machine and key", lineNo)
	}
	return &rec, nil
}
