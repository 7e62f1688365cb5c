package lmbench

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/fleet"
	"repro/internal/ptime"
	"repro/internal/timing"
)

func TestFacadeSimRun(t *testing.T) {
	names := SimMachineNames()
	if len(names) < 10 {
		t.Fatalf("SimMachineNames = %d entries", len(names))
	}
	m, err := NewSimMachine("Linux/i686")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Timing:  timing.Options{MinSampleTime: 100 * ptime.Microsecond, Samples: 2},
		FSFiles: 50,
	}
	rep, err := New(WithMachine(m), WithOptions(opts), WithOnly("table7", "table16")).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if skipped := rep.Skipped["Linux/i686"]; len(skipped) != 0 {
		t.Errorf("skipped = %v", skipped)
	}
	db := rep.DB
	if _, ok := db.Scalar("lat_syscall", "Linux/i686"); !ok {
		t.Error("missing lat_syscall")
	}

	var buf bytes.Buffer
	if err := RenderReport(&buf, db); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Table 7") {
		t.Errorf("report missing Table 7:\n%s", buf.String())
	}
	buf.Reset()
	if err := RenderTable(&buf, "table16", db); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Table 16") {
		t.Error("RenderTable failed")
	}
}

func TestFacadeUnknownMachine(t *testing.T) {
	_, err := NewSimMachine("PDP-11")
	var ue *UnknownMachineError
	if !errors.As(err, &ue) || ue.Name != "PDP-11" {
		t.Errorf("err = %v, want UnknownMachineError", err)
	}
	if ue.Error() == "" {
		t.Error("empty error text")
	}
}

// TestFacadeUnknownExperiment: a mistyped WithOnly ID fails the run
// and names the ID, instead of returning an empty report.
func TestFacadeUnknownExperiment(t *testing.T) {
	m, err := NewSimMachine("Linux/i686")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := New(WithMachine(m), WithOnly("table7", "tabel2")).Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), `"tabel2"`) {
		t.Errorf("Run = %v, %v; want an error naming \"tabel2\"", rep, err)
	}
}

func TestFacadeExperiments(t *testing.T) {
	if len(Experiments()) != 18 {
		t.Errorf("Experiments = %d, want 18", len(Experiments()))
	}
}

func TestFacadeExtendedAndAutoSize(t *testing.T) {
	m, err := NewSimMachine("SGI Challenge")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Timing:  timing.Options{MinSampleTime: 100 * ptime.Microsecond, Samples: 2},
		MemSize: 1 << 20,
	}
	rep, err := New(WithMachine(m), WithOptions(opts), WithExtended(), WithOnly("ext_stream")).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if skipped := rep.Skipped["SGI Challenge"]; len(skipped) != 0 {
		t.Errorf("skipped = %v", skipped)
	}
	if _, ok := rep.DB.Scalar("stream.triad", "SGI Challenge"); !ok {
		t.Error("missing stream.triad")
	}
	if len(Extensions()) < 5 {
		t.Errorf("Extensions = %d", len(Extensions()))
	}

	sized, err := AutoSize(context.Background(), m, Options{MaxChaseSize: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if sized.MemSize < 16<<20 {
		t.Errorf("AutoSize = %d, want >= 16M for the 4M board cache", sized.MemSize)
	}
}

// TestWithSweepModeOrderIndependent pins the builder contract for
// WithSweepMode: it composes with WithOptions in either order, marks
// the produced entries, and moves the run to a distinct fingerprint
// (and therefore RunID / unit-cache key space) from an exhaustive run
// of the same options.
func TestWithSweepModeOrderIndependent(t *testing.T) {
	run := func(options ...Option) *Report {
		t.Helper()
		m, err := NewSimMachine("Linux/i686")
		if err != nil {
			t.Fatal(err)
		}
		rep, err := New(append(options,
			WithMachine(m), WithOnly("figure1", "table6"))...).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	before := run(WithSweepMode(SweepAdaptive), WithOptions(exampleOpts()))
	after := run(WithOptions(exampleOpts()), WithSweepMode(SweepAdaptive))
	exhaustive := run(WithOptions(exampleOpts()))

	var a, b bytes.Buffer
	_ = before.DB.Encode(&a)
	_ = after.DB.Encode(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("WithSweepMode before and after WithOptions produced different databases")
	}
	marked := false
	for _, e := range before.DB.Entries() {
		if e.Attrs["sweep.mode"] == string(SweepAdaptive) {
			marked = true
		}
	}
	if !marked {
		t.Error("adaptive run produced no sweep.mode-marked entries")
	}
	for _, e := range exhaustive.DB.Entries() {
		if e.Attrs["sweep.mode"] != "" {
			t.Errorf("exhaustive entry %s carries sweep.mode=%q", e.Benchmark, e.Attrs["sweep.mode"])
		}
	}
	if before.RunID == exhaustive.RunID {
		t.Error("adaptive and exhaustive runs share a RunID — the mode is missing from the fingerprint")
	}
	if before.RunID != after.RunID {
		t.Error("option ordering changed the RunID")
	}
}

// exampleOpts shrinks the workloads so the examples run in a moment.
func exampleOpts() Options {
	return Options{
		Timing:       timing.Options{MinSampleTime: 100 * ptime.Microsecond, Samples: 2},
		MemSize:      1 << 20,
		FileSize:     1 << 20,
		MaxChaseSize: 1 << 20,
		FSFiles:      50,
		CtxProcs:     []int{2, 4},
		CtxSizes:     []int64{0, 4 << 10},
	}
}

// ExampleNew is the builder quickstart: compose a run from options,
// execute it, and render the report. Swap NewSimMachine for
// NewHostMachine to measure the real machine.
func ExampleNew() {
	m, err := NewSimMachine("Linux/i686")
	if err != nil {
		panic(err)
	}
	rep, err := New(
		WithMachine(m),
		WithOptions(exampleOpts()),
		WithOnly("table7"),
	).Run(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Println("entries:", len(rep.DB.Entries()) > 0)
	fmt.Println("skipped:", len(rep.Skipped["Linux/i686"]))
	// rep.Render(os.Stdout) would print the paper-style tables.
	// Output:
	// entries: true
	// skipped: 0
}

// ExampleNew_fleet executes the run across two worker daemons — served
// in-process on loopback here; in production each is a process started
// with `lmbench -fleet-listen addr` — and shows the result is
// byte-identical to the serial run.
func ExampleNew_fleet() {
	ctx, stop := context.WithCancel(context.Background())
	var served sync.WaitGroup
	defer served.Wait()
	defer stop()
	var daemons []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		served.Add(1)
		go func() {
			defer served.Done()
			// A daemon that fails to serve surfaces as a failed run.
			_ = fleet.Serve(ctx, ln)
		}()
		daemons = append(daemons, ln.Addr().String())
	}

	machines := func() []Option {
		var opts []Option
		for _, n := range []string{"Linux/i686", "Linux/Alpha"} {
			m, err := NewSimMachine(n)
			if err != nil {
				panic(err)
			}
			opts = append(opts, WithMachine(m))
		}
		return opts
	}
	base := []Option{WithOptions(exampleOpts()), WithOnly("table2", "table7")}

	serial, err := New(append(machines(), base...)...).Run(context.Background())
	if err != nil {
		panic(err)
	}
	remote, err := New(append(machines(), append(base, WithFleetConnect(daemons...))...)...).Run(context.Background())
	if err != nil {
		panic(err)
	}

	var a, b bytes.Buffer
	_ = serial.DB.Encode(&a)
	_ = remote.DB.Encode(&b)
	fmt.Println("fleet == serial:", bytes.Equal(a.Bytes(), b.Bytes()))
	// Output:
	// fleet == serial: true
}

// ExampleNew_journal makes a run crash-safe: every completed
// experiment is journaled, and re-running with the same path replays
// the journal instead of re-executing — here the second run rebuilds
// the identical database entirely from the journal.
func ExampleNew_journal() {
	dir, err := os.MkdirTemp("", "lmbench-example")
	if err != nil {
		panic(err)
	}
	defer func() { _ = os.RemoveAll(dir) }()
	journal := filepath.Join(dir, "run.jnl")

	run := func() *Report {
		m, err := NewSimMachine("IBM PowerPC")
		if err != nil {
			panic(err)
		}
		rep, err := New(
			WithMachine(m),
			WithOptions(exampleOpts()),
			WithOnly("table7", "table16"),
			WithJournal(journal),
		).Run(context.Background())
		if err != nil {
			panic(err)
		}
		return rep
	}
	first, resumed := run(), run()

	var a, b bytes.Buffer
	_ = first.DB.Encode(&a)
	_ = resumed.DB.Encode(&b)
	fmt.Println("resumed identical:", bytes.Equal(a.Bytes(), b.Bytes()))
	// Output:
	// resumed identical: true
}
