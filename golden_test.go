package lmbench_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/obs"
	"repro/internal/ptime"
	"repro/internal/results"
	"repro/internal/timing"
)

// goldenDBSHA256 pins the byte-identical-results contract: the full
// suite on every simulated machine, encoded with the standard lmreport
// options, must hash to exactly this value. Every performance
// optimization in the simulator (O(1) cache probes, batched clock
// charging, page-granular TLB probing, sharded sweeps) is argued — and
// here verified — to change nothing observable. Regenerate only for a
// deliberate modeling change:
//
//	go run ./cmd/lmreport -quiet -out results/simulated.db
//	sha256sum results/simulated.db
//
// History: the hash changed once for a deliberate format change — the
// results store's content addressing fixed Encode's entry order to the
// canonical (benchmark, machine) sort; the old insertion-ordered file
// decoded and re-encoded lands exactly on the new hash, so every
// measured value is bit-identical to the PR-3 pin (53fd7a0d…).
const goldenDBSHA256 = "1f3557d092214eb2d3a85ac64bc33a7205037c32bf2d22349c264f4a454126df"

// goldenDBPath is the committed golden database, the file
// goldenDBSHA256 hashes.
const goldenDBPath = "results/simulated.db"

// committedGolden reads the committed golden database: its bytes and
// their decoding.
func committedGolden(t *testing.T) ([]byte, *results.DB) {
	t.Helper()
	raw, err := os.ReadFile(goldenDBPath)
	if err != nil {
		t.Fatal(err)
	}
	db, err := results.Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return raw, db
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkGolden compares db's encoding against the golden hash. On a
// mismatch it names the first machine × benchmark entries that differ
// from the committed golden database, so a failure says where the
// behaviour changed, not only that it did.
func checkGolden(t *testing.T, db *results.DB, config string) {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got := sha256Hex(buf.Bytes())
	if got == goldenDBSHA256 {
		return
	}
	_, want := committedGolden(t)
	t.Errorf("%s: database hash %s, want %s; entries differing from %s: %s\n"+
		"the simulator's observable behavior changed; if intentional, refresh results/ and this hash",
		config, got, goldenDBSHA256, goldenDBPath, goldenDiff(t, db, want))
}

// goldenDiff lists, in the canonical entry order, the first entries
// that are only in got, only in want, or encode differently.
func goldenDiff(t *testing.T, got, want *results.DB) string {
	t.Helper()
	const show = 5
	var diffs []string
	note := func(e results.Entry, what string) {
		diffs = append(diffs, fmt.Sprintf("%s × %s (%s)", e.Machine, e.Benchmark, what))
	}
	for _, e := range got.Entries() {
		w, ok := want.Get(e.Benchmark, e.Machine)
		switch {
		case !ok:
			note(e, "extra")
		case !bytes.Equal(encodeDB(t, []results.Entry{e}), encodeDB(t, []results.Entry{w})):
			note(e, "differs")
		}
	}
	for _, w := range want.Entries() {
		if _, ok := got.Get(w.Benchmark, w.Machine); !ok {
			note(w, "missing")
		}
	}
	switch {
	case len(diffs) == 0:
		return "none; the encoding itself changed"
	case len(diffs) > show:
		diffs = append(diffs[:show], fmt.Sprintf("and %d more", len(diffs)-show))
	}
	return strings.Join(diffs, ", ")
}

// TestCommittedGoldenPinned pins the committed golden database, which
// the store, chaos and adaptive-sweep tests read as input, to the
// golden hash. It reads one file, so -short runs it too.
func TestCommittedGoldenPinned(t *testing.T) {
	raw, db := committedGolden(t)
	if got := sha256Hex(raw); got != goldenDBSHA256 {
		t.Fatalf("%s hashes to %s, want %s", goldenDBPath, got, goldenDBSHA256)
	}
	// checkGolden's diagnostics: one changed point and one dropped
	// entry are named, and nothing else.
	e, ok := db.Get("lat_mem_rd", "Linux/i686")
	if !ok {
		t.Fatalf("%s has no lat_mem_rd entry for Linux/i686", goldenDBPath)
	}
	e.Series = append([]results.Point(nil), e.Series...)
	e.Series[3].Y++
	changed := &results.DB{}
	for _, x := range db.Entries() {
		if x.Benchmark == "lat_mem_rd" && x.Machine == "Linux/i686" {
			x = e
		}
		if x.Benchmark == "bw_mem.bcopy_libc" && x.Machine == "IBM Power2" {
			continue
		}
		if err := changed.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	want := "Linux/i686 × lat_mem_rd (differs), IBM Power2 × bw_mem.bcopy_libc (missing)"
	if got := goldenDiff(t, changed, db); got != want {
		t.Errorf("goldenDiff = %q, want %q", got, want)
	}
}

// goldenOpts are cmd/lmreport's default options — the recipe behind
// results/simulated.db.
func goldenOpts() core.Options {
	return core.Options{
		Timing:       timing.Options{MinSampleTime: ptime.Millisecond, Samples: 2},
		MemSize:      8 << 20,
		FileSize:     8 << 20,
		MaxChaseSize: 8 << 20,
		FSFiles:      500,
		CtxProcs:     []int{2, 4, 8, 12, 16, 20},
		CtxSizes:     []int64{0, 4 << 10, 16 << 10, 32 << 10, 64 << 10},
	}
}

// TestGoldenDatabaseByteIdentical regenerates the entire evaluation
// in-process and compares the encoded database hash against the pinned
// golden value. It takes ~12s of real time on a 2-core host (the whole
// paper on the 15 compiled profiles), so -short skips it.
//
// The run executes with the full observability stack attached —
// metrics, per-sample span tracing, and live progress — which doubles
// this test as the out-of-band proof: a run that is watched hashes the
// same as one that is not.
func TestGoldenDatabaseByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite regeneration is slow; skipped with -short")
	}
	reg := obs.NewRegistry()
	obs.RegisterHarness(reg)
	progress := obs.NewProgress()
	tracer := obs.NewTraceSink(io.Discard).WithSamples()
	sink := core.MultiSink{obs.NewMetricsSink(reg), tracer, progress}

	db := &results.DB{}
	for _, n := range machines.Names() {
		p, _ := machines.ByName(n)
		m, err := machines.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		s := &core.Suite{M: m, Opts: goldenOpts(), Events: sink}
		if _, err := s.Run(context.Background(), db); err != nil {
			t.Fatalf("%s: %v", n, err)
		}
	}
	checkGolden(t, db, "serial")

	// The observers must actually have observed the run, or the
	// byte-identity above proves nothing.
	var expo bytes.Buffer
	if err := reg.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"lmbench_experiments_finished_total",
		"lmbench_harness_batches_total",
		"lmbench_harness_benchloops_total",
		"lmbench_sim_",
	} {
		if !strings.Contains(expo.String(), want) {
			t.Errorf("metrics exposition after the golden run is missing %q", want)
		}
	}
	if tracer.Spans() == 0 {
		t.Error("trace sink recorded no spans during the golden run")
	}
	if snap := progress.Snapshot(); snap.Completed == 0 {
		t.Errorf("progress saw no completed experiments: %+v", snap)
	}
}
