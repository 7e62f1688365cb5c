package core_test

// Regression tests for the observability seams and the quality gate's
// degenerate-measurement handling:
//
//   - A measurement whose fastest batch took zero time (a virtual clock
//     the op never charged) has an undefined relative spread; the gate
//     must re-measure it instead of accepting it as "spread 0".
//   - AttemptProber: sinks that want harness probes get them installed
//     per attempt, MultiSink fans probe calls out to every interested
//     member, and none of it leaks into the results database.
//   - JSONLSink/MultiSink under concurrent fire (run with -race): every
//     emitted line must parse — no torn or interleaved writes.
//   - Journal.BytesWritten matches the bytes actually appended.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ptime"
	"repro/internal/results"
	"repro/internal/timing"
)

// degenerateExperiment records 5 timed batches per attempt. Attempts up
// to calmAfter charge nothing on some batches (min elapsed 0 while the
// median is positive — relative spread undefined); later attempts
// charge a steady cost.
func degenerateExperiment(id string, calmAfter int, attempts *int) core.Experiment {
	return core.Experiment{
		ID: id, Title: "synthetic degenerate experiment", Benchmarks: []string{id},
		Run: func(ctx context.Context, m core.Machine, opts core.Options) ([]results.Entry, error) {
			*attempts++
			degenerate := *attempts <= calmAfter
			clk := &jitterClock{}
			batch := 0
			meas, err := timing.BenchLoopCtx(ctx, clk, timing.Options{
				MinSampleTime: ptime.Microsecond, Samples: 5,
				Resolution: ptime.Nanosecond, NoWarmup: true,
			}, func(n int64) error {
				batch++
				// Batch 1 is calibration and always charges. On degenerate
				// attempts every other timed batch charges nothing at all,
				// so the sample set is {0, 10µs, ...}: min 0, median
				// positive, spread undefined.
				if degenerate && batch > 1 && batch%2 == 0 {
					return nil
				}
				clk.charge((10 * ptime.Microsecond).Mul(n))
				return nil
			})
			if err != nil {
				return nil, err
			}
			return []results.Entry{{
				Benchmark: id, Machine: m.Name(), Unit: "ns", Scalar: meas.PerOpNS(),
			}}, nil
		},
	}
}

// TestQualityGateRemeasuresDegenerate: a zero-minimum sample set used
// to sail through the gate (its spread is unknown, not small); now it
// is rejected and re-measured like a noisy one.
func TestQualityGateRemeasuresDegenerate(t *testing.T) {
	attempts := 0
	rec, db := qualitySuite(t, degenerateExperiment("degen1", 1, &attempts), 0.05, 0)

	if attempts != 2 {
		t.Fatalf("experiment ran %d times, want 2 (degenerate, then calm)", attempts)
	}
	if n := len(rec.byKind(core.ExperimentQuality)); n != 1 {
		t.Fatalf("quality events = %d, want 1", n)
	}
	e, ok := db.Get("degen1", "Linux/i686")
	if !ok {
		t.Fatal("entry missing")
	}
	if _, present := e.Attrs["quality.degenerate"]; present {
		t.Errorf("calm re-measurement still stamped degenerate: %v", e.Attrs)
	}
	if _, flagged := e.Attrs["quality.flagged"]; flagged {
		t.Error("calm accepted result was flagged")
	}
}

// TestQualityGateStampsPersistentDegenerate: when the budget runs out
// the degenerate result is accepted, but flagged and stamped so reports
// can see how many measurements had no defined spread.
func TestQualityGateStampsPersistentDegenerate(t *testing.T) {
	attempts := 0
	_, db := qualitySuite(t, degenerateExperiment("degen2", 1<<30, &attempts), 0.05, 1)

	if attempts != 2 {
		t.Fatalf("experiment ran %d times, want 2 (QualityRetries=1)", attempts)
	}
	e, ok := db.Get("degen2", "Linux/i686")
	if !ok {
		t.Fatal("entry missing")
	}
	if got := e.Attrs["quality.degenerate"]; got != "1" {
		t.Errorf("quality.degenerate = %q, want 1", got)
	}
	if got := e.Attrs["quality.flagged"]; got != "true" {
		t.Errorf("quality.flagged = %q, want true", got)
	}
}

// probeSink is an EventSink that asks for a probe on every attempt and
// counts what the harness reports to it.
type probeSink struct {
	mu         sync.Mutex
	attempts   []string
	calibrated int
	samples    int
	timed      int
}

func (p *probeSink) Event(core.Event) {}

func (p *probeSink) AttemptProbe(machine, experiment string, attempt int) timing.Probe {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempts = append(p.attempts, fmt.Sprintf("%s/%s/%d", machine, experiment, attempt))
	return p
}

func (p *probeSink) Calibrated(n int64, resolution ptime.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.calibrated++
}

func (p *probeSink) Sample(elapsed ptime.Duration, n int64, timed bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.samples++
	if timed {
		p.timed++
	}
}

// TestSuiteInstallsAttemptProbes: the suite hands each interested sink
// a per-attempt probe, MultiSink fans the harness's calls out to every
// one of them, and the probes change nothing in the database.
func TestSuiteInstallsAttemptProbes(t *testing.T) {
	p1, p2 := &probeSink{}, &probeSink{}
	plain := &recorderSink{}
	attempts := 0
	exp := degenerateExperiment("probed", 0, &attempts) // always calm
	db := &results.DB{}
	s := &core.Suite{
		M: simMachine(t, "Linux/i686"), Opts: smallOpts(),
		Events:      core.MultiSink{p1, plain, p2},
		Experiments: []core.Experiment{exp},
	}
	if _, err := s.Run(context.Background(), db); err != nil {
		t.Fatal(err)
	}
	for i, p := range []*probeSink{p1, p2} {
		if len(p.attempts) != 1 || p.attempts[0] != "Linux/i686/probed/1" {
			t.Errorf("sink %d attempts = %v, want [Linux/i686/probed/1]", i+1, p.attempts)
		}
		if p.calibrated != 1 {
			t.Errorf("sink %d calibrations = %d, want 1", i+1, p.calibrated)
		}
		if p.timed != 5 || p.samples < 6 {
			t.Errorf("sink %d saw %d samples (%d timed), want >=6 with 5 timed",
				i+1, p.samples, p.timed)
		}
	}
	// Out of band: the probed run's entry carries no probe residue.
	e, ok := db.Get("probed", "Linux/i686")
	if !ok {
		t.Fatal("entry missing")
	}
	if len(e.Attrs) != 0 {
		t.Errorf("probed entry grew attrs %v", e.Attrs)
	}
	// A MultiSink with no probing members declines, so the suite skips
	// probe installation entirely.
	if p := (core.MultiSink{plain}).AttemptProbe("m", "e", 1); p != nil {
		t.Errorf("probe-less MultiSink returned %v, want nil", p)
	}
}

// TestEventSinksConcurrentTearFree fires events at a JSONL+text
// MultiSink from many goroutines (run under -race) and asserts every
// JSONL line parses back to one of the emitted events — no torn,
// interleaved or dropped writes.
func TestEventSinksConcurrentTearFree(t *testing.T) {
	var jbuf, tbuf bytes.Buffer
	sink := core.MultiSink{core.NewJSONLSink(&jbuf), core.NewPrefixedTextSink(&tbuf)}
	const goroutines, perG = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				sink.Event(core.Event{
					Kind: core.ExperimentFinished, Time: time.Now(),
					Machine: fmt.Sprintf("m%d", g), Experiment: fmt.Sprintf("e%d", i),
					Title: "concurrent tear test", Attempt: 1, Entries: i,
					Sim: map[string]int64{"ops": int64(i)},
				})
			}
		}(g)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimRight(jbuf.String(), "\n"), "\n")
	if len(lines) != goroutines*perG {
		t.Fatalf("got %d JSONL lines, want %d", len(lines), goroutines*perG)
	}
	seen := map[string]int{}
	for i, line := range lines {
		var e core.Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("line %d does not parse (%v): %q", i+1, err, line)
		}
		if e.Kind != core.ExperimentFinished || e.Machine == "" {
			t.Fatalf("line %d parsed to unexpected event %+v", i+1, e)
		}
		seen[e.Machine]++
	}
	for g := 0; g < goroutines; g++ {
		if n := seen[fmt.Sprintf("m%d", g)]; n != perG {
			t.Errorf("machine m%d has %d events, want %d", g, n, perG)
		}
	}
}

// TestJournalBytesWritten: the counter matches the bytes the writer
// appended after the header, so the observability gauge is exact.
func TestJournalBytesWritten(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jnl")
	jw, err := core.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jw.Close()
	if jw.BytesWritten() != 0 {
		t.Fatalf("fresh journal reports %d bytes", jw.BytesWritten())
	}
	size := func() int64 {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	header := size()
	for i := 0; i < 3; i++ {
		if err := jw.Record(core.JournalRecord{
			Machine: "m", Key: fmt.Sprintf("k%d", i),
			Entries: []results.Entry{{Benchmark: "b", Machine: "m", Unit: "ns", Scalar: float64(i)}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := jw.BytesWritten(), size()-header; got != want {
		t.Errorf("BytesWritten = %d, want %d", got, want)
	}
}
