package core_test

// Tests for the crash-safe run journal: the wire format (checksums,
// torn-line tolerance, corruption detection) and the headline
// guarantee that a run killed mid-suite and resumed from its journal
// encodes a database byte-identical to an uninterrupted run — serial
// and parallel, including resuming across a torn final line.

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/results"
)

func journalRecords() []core.JournalRecord {
	return []core.JournalRecord{
		{
			Machine: "Linux/i686", Key: "table7",
			Entries: []results.Entry{{
				Benchmark: "lat_syscall", Machine: "Linux/i686", Unit: "us", Scalar: 4.2,
				Attrs: map[string]string{"quality.samples": "11", "quality.spread": "0.03"},
			}},
		},
		{Machine: "Linux/i686", Key: "table17", Skipped: true, Err: "disk: unsupported"},
	}
}

// openJournal opens the journal at path, closed when the test ends.
func openJournal(t *testing.T, path string) *core.Journal {
	t.Helper()
	j, err := core.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = j.Close() })
	return j
}

// fileBytes returns the current contents of path.
func fileBytes(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// writeJournalFile writes b to a fresh file and returns its path.
func writeJournalFile(t *testing.T, b []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.jnl")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jnl")
	jw := openJournal(t, path)
	recs := journalRecords()
	for _, rec := range recs {
		if err := jw.Record(rec); err != nil {
			t.Fatal(err)
		}
	}
	written := len(fileBytes(t, path))

	jr := openJournal(t, path)
	if jr.Len() != len(recs) {
		t.Fatalf("Len = %d, want %d", jr.Len(), len(recs))
	}
	if n := len(fileBytes(t, path)); n != written {
		t.Errorf("reopened journal is %d bytes, want %d", n, written)
	}
	for _, want := range recs {
		got, ok := jr.Lookup(want.Machine, want.Key)
		if !ok {
			t.Fatalf("Lookup(%q, %q) missing", want.Machine, want.Key)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Lookup(%q, %q) = %+v, want %+v", want.Machine, want.Key, got, want)
		}
	}
}

func TestJournalEmptyAndHeaderOnly(t *testing.T) {
	path := writeJournalFile(t, nil)
	if jr := openJournal(t, path); jr.Len() != 0 {
		t.Errorf("empty file: Len = %d, want 0", jr.Len())
	}
	header := fileBytes(t, path)
	if len(header) == 0 || header[len(header)-1] != '\n' {
		t.Fatalf("empty file did not get a header line: %q", header)
	}
	if jr := openJournal(t, path); jr.Len() != 0 {
		t.Errorf("header-only file: Len = %d, want 0", jr.Len())
	}
	if got := fileBytes(t, path); !bytes.Equal(got, header) {
		t.Errorf("reopening a header-only journal changed it: %q, want %q", got, header)
	}
}

// TestJournalTornFinalLine: an unterminated final line — whatever a
// crash left behind — is dropped and truncated away at open, whether
// it is garbage, a checksum-valid prefix, or even a complete record
// missing only its newline.
func TestJournalTornFinalLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jnl")
	jw := openJournal(t, path)
	if err := jw.Record(journalRecords()[0]); err != nil {
		t.Fatal(err)
	}
	whole := len(fileBytes(t, path))

	// A second, complete record that we then tear at various points.
	if err := jw.Record(journalRecords()[1]); err != nil {
		t.Fatal(err)
	}
	full := fileBytes(t, path)
	for _, cut := range []int{
		whole + 1,      // one byte of the next record
		len(full) - 10, // most of it
		len(full) - 1,  // everything but the newline
	} {
		torn := writeJournalFile(t, full[:cut])
		jr := openJournal(t, torn)
		if jr.Len() != 1 {
			t.Errorf("cut at %d: Len = %d, want 1", cut, jr.Len())
		}
		if n := len(fileBytes(t, torn)); n != whole {
			t.Errorf("cut at %d: opened journal is %d bytes, want %d", cut, n, whole)
		}
	}
}

// TestJournalCorruptionDetected: damage anywhere before the final line
// is not crash debris — it must surface as an error, not silent data
// loss.
func TestJournalCorruptionDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jnl")
	jw := openJournal(t, path)
	for _, rec := range journalRecords() {
		if err := jw.Record(rec); err != nil {
			t.Fatal(err)
		}
	}
	good := fileBytes(t, path)

	opens := func(b []byte) bool {
		j, err := core.OpenJournal(writeJournalFile(t, b))
		if err != nil {
			return false
		}
		_ = j.Close()
		return true
	}
	flip := func(b []byte, i int) []byte {
		out := append([]byte(nil), b...)
		out[i] ^= 0x01
		return out
	}
	// Flip a payload byte of the first record (terminated line).
	idx := bytes.Index(good, []byte("lat_syscall"))
	if opens(flip(good, idx)) {
		t.Error("payload corruption in a complete line went undetected")
	}
	// A terminated final line with a bad checksum is corruption too: a
	// crash tears the newline off, it does not rewrite bytes.
	idx = bytes.Index(good, []byte("table17"))
	if opens(flip(good, idx)) {
		t.Error("corrupt terminated final line went undetected")
	}
	// A journal without its header is not a journal.
	if opens([]byte("deadbeef {}\n")) {
		t.Error("missing header went undetected")
	}
}

// cancelSink kills the run after the first completed experiment,
// standing in for a crash at a deterministic point: the cancellation
// happens synchronously inside the event callback, before the suite
// loop reaches its next iteration.
type cancelSink struct {
	cancel context.CancelFunc
	mu     sync.Mutex
	fired  bool
}

func (c *cancelSink) Event(e core.Event) {
	if e.Kind == core.ExperimentFinished {
		c.mu.Lock()
		if !c.fired {
			c.fired = true
			c.cancel()
		}
		c.mu.Unlock()
	}
}

// resumeSubset covers the kill-and-resume guarantee's hardest case:
// besides the memory, OS and IPC groups, it includes table10 — the
// context-switch sweep, whose randomly placed cache footprints made
// results depend on earlier experiments' heap and cache state until
// the suite began resetting machines per attempt (core.Resetter). A
// resumed run replays earlier groups instead of executing them, so any
// such history dependence breaks byte-identity exactly here.
func resumeSubset() map[string]bool {
	return map[string]bool{"table2": true, "table7": true, "table10": true, "table11": true}
}

// TestKillAndResumeByteIdentical is the tentpole guarantee: kill a
// journaled run mid-suite, resume from the journal, and the resulting
// database encodes byte-for-byte the same as a run that was never
// interrupted. Exercised serially, in parallel, and with the journal's
// final line torn as a crash would leave it.
func TestKillAndResumeByteIdentical(t *testing.T) {
	names := []string{"Linux/i686", "Linux/i586"}
	targets := func() []core.Machine {
		ms := make([]core.Machine, len(names))
		for i, n := range names {
			ms[i] = simMachine(t, n)
		}
		return ms
	}
	const totalUnits = 8 // {table2, table7, ctx, ipc} x two machines

	// The reference: one uninterrupted serial run.
	want := &results.DB{}
	r := &core.Runner{Machines: targets(), Opts: smallOpts(), Only: resumeSubset()}
	if _, err := r.Run(context.Background(), want); err != nil {
		t.Fatal(err)
	}
	wantBytes := encodeDB(t, want)

	for _, tc := range []struct {
		name     string
		parallel int
		tear     bool
	}{
		{"serial", 1, false},
		{"parallel", 2, false},
		{"serial_torn_tail", 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.jsonl")

			// Phase 1: journaled run, killed after the first completed
			// experiment.
			jw, err := core.OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ir := &core.Runner{
				Machines: targets(), Opts: smallOpts(), Only: resumeSubset(),
				Parallel: tc.parallel, Journal: jw,
				Events: &cancelSink{cancel: cancel},
			}
			if _, err := ir.Run(ctx, &results.DB{}); !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
			}
			if err := jw.Close(); err != nil {
				t.Fatal(err)
			}
			if tc.tear {
				// Simulate the crash cutting a record short.
				f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write([]byte("5f3ab90c {\"machine\":\"Linux")); err != nil {
					t.Fatal(err)
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
			}

			// Phase 2: resume from the journal, exactly as every entry
			// point does — open it, which replays its records, drops a
			// torn tail and keeps appending.
			replay := openJournal(t, path)
			if replay.Len() == 0 || replay.Len() >= totalUnits {
				t.Fatalf("interrupted journal has %d records, want a strict mid-run subset of %d", replay.Len(), totalUnits)
			}
			rec := &recorderSink{}
			rr := &core.Runner{
				Machines: targets(), Opts: smallOpts(), Only: resumeSubset(),
				Parallel: tc.parallel, Journal: replay,
				Events: rec,
			}
			got := &results.DB{}
			if _, err := rr.Run(context.Background(), got); err != nil {
				t.Fatalf("resumed run failed: %v", err)
			}

			if !bytes.Equal(encodeDB(t, got), wantBytes) {
				t.Error("resumed database differs from the uninterrupted run")
			}
			if n := len(rec.byKind(core.ExperimentReplayed)); n != replay.Len() {
				t.Errorf("replayed events = %d, want %d", n, replay.Len())
			}
			if n := len(rec.byKind(core.ExperimentFinished)) + replay.Len(); n != totalUnits {
				t.Errorf("finished+replayed = %d, want %d", n, totalUnits)
			}

			// The appended journal now covers the whole run and reads
			// back clean — a second resume would replay everything.
			final := openJournal(t, path)
			if final.Len() != totalUnits {
				t.Errorf("final journal has %d records, want %d", final.Len(), totalUnits)
			}
		})
	}
}

// TestResumeReplaysSkips: a journaled unsupported-skip replays as a
// skip — the resumed run must not retry the probe.
func TestResumeReplaysSkips(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jnl")
	jw := openJournal(t, path)
	if err := jw.Record(core.JournalRecord{
		Machine: "Linux/i686", Key: "table7", Skipped: true, Err: "simulated",
	}); err != nil {
		t.Fatal(err)
	}
	replay := openJournal(t, path)

	rec := &recorderSink{}
	s := &core.Suite{
		M: simMachine(t, "Linux/i686"), Opts: smallOpts(),
		Only: map[string]bool{"table7": true}, Journal: replay, Events: rec,
	}
	db := &results.DB{}
	skipped, err := s.Run(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 1 || skipped[0] != "table7" {
		t.Errorf("skipped = %v, want [table7]", skipped)
	}
	if len(rec.byKind(core.ExperimentReplayed)) != 1 {
		t.Error("skip replay emitted no replayed event")
	}
	if len(rec.byKind(core.ExperimentStarted)) != 0 {
		t.Error("replayed skip was re-executed")
	}
	if _, ok := db.Get("lat_syscall", "Linux/i686"); ok {
		t.Error("replayed skip produced entries")
	}
}
