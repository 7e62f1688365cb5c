package fleet

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/ptime"
	"repro/internal/results"
	"repro/internal/timing"
)

// daemonEnv turns a re-execution of this test binary into a worker
// daemon process (see TestMain), so a test can SIGKILL a real process
// mid-run.
const daemonEnv = "FLEET_TEST_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) != "" {
		os.Exit(serveDaemonProcess())
	}
	os.Exit(m.Run())
}

// serveDaemonProcess is the daemon mode of the test binary: it listens
// on an ephemeral loopback port, announces the address on stdout, and
// serves until it is killed.
func serveDaemonProcess() int {
	ln, err := listenLoopback()
	if err != nil {
		fmt.Fprintln(os.Stderr, "daemon:", err)
		return 1
	}
	fmt.Println(ln.Addr())
	if err := Serve(context.Background(), ln); err != nil {
		fmt.Fprintln(os.Stderr, "daemon:", err)
		return 1
	}
	return 0
}

// startDaemonProcess re-executes this test binary as a worker daemon
// and returns its announced address and its process. The process is
// killed and reaped when the test ends.
func startDaemonProcess(t *testing.T) (string, *os.Process) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), daemonEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	addr, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		t.Fatalf("daemon process announced no address: %v", err)
	}
	return strings.TrimSpace(addr), cmd.Process
}

// startDaemon boots ServeWith on an ephemeral port in this process and
// returns its address plus a shutdown func that cancels and waits for
// the drain.
func startDaemon(t *testing.T, o ServeOptions) (addr string, shutdown func()) {
	t.Helper()
	ln, err := listenLoopback()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- ServeWith(ctx, ln, o) }()
	return ln.Addr().String(), func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("ServeWith: %v", err)
			}
		case <-time.After(60 * time.Second):
			t.Error("daemon did not drain")
		}
	}
}

// startDaemons boots n in-process worker daemons, shut down when the
// test ends, and returns their addresses.
func startDaemons(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		addr, shutdown := startDaemon(t, ServeOptions{Logf: t.Logf})
		t.Cleanup(shutdown)
		addrs[i] = addr
	}
	return addrs
}

// fastOpts shrinks the workloads so a multi-run test stays quick.
func fastOpts() core.Options {
	return core.Options{
		Timing:       timing.Options{MinSampleTime: 100 * ptime.Microsecond, Samples: 2},
		MemSize:      1 << 20,
		FileSize:     1 << 20,
		MaxChaseSize: 1 << 20,
		FSFiles:      50,
		CtxProcs:     []int{2, 4},
		CtxSizes:     []int64{0, 4 << 10},
	}
}

var testMachines = machines.Names()[:3]

var testOnly = map[string]bool{"table2": true, "table7": true, "table16": true}

// serialBytes runs the same selection serially and returns the encoded
// database — the byte-identity reference for every fleet test.
func serialBytes(t *testing.T) []byte {
	t.Helper()
	db := &results.DB{}
	for _, n := range testMachines {
		p, _ := machines.ByName(n)
		m, err := machines.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		s := &core.Suite{M: m, Opts: fastOpts(), Only: testOnly}
		if _, err := s.Run(context.Background(), db); err != nil {
			t.Fatalf("%s: %v", n, err)
		}
	}
	return encode(t, db)
}

func listenLoopback() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

func encode(t *testing.T, db *results.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// testObserver counts scheduling callbacks and fires a hook on unit
// completion; used to inject kills and cancellations mid-run.
type testObserver struct {
	mu         sync.Mutex
	up, down   int
	retried    int
	done       int
	dispatched int
	onDone     func(done int)
}

func (o *testObserver) WorkerUp(string) {
	o.mu.Lock()
	o.up++
	o.mu.Unlock()
}

func (o *testObserver) WorkerDown(string, error) {
	o.mu.Lock()
	o.down++
	o.mu.Unlock()
}

func (o *testObserver) QueueDepth(int, int) {}

func (o *testObserver) UnitDispatched(time.Duration) {
	o.mu.Lock()
	o.dispatched++
	o.mu.Unlock()
}

func (o *testObserver) UnitDone() {
	o.mu.Lock()
	o.done++
	done := o.done
	hook := o.onDone
	o.mu.Unlock()
	if hook != nil {
		hook(done)
	}
}

func (o *testObserver) UnitRetried() {
	o.mu.Lock()
	o.retried++
	o.mu.Unlock()
}

func (o *testObserver) counts() (up, down, retried, done int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.up, o.down, o.retried, o.done
}

func TestProtocolRoundTrip(t *testing.T) {
	opts := fastOpts()
	in := &wireMsg{
		Type: msgUnit, V: protoVersion, Seq: 7,
		Machine: "Linux/i686", Key: "mem_hier", IDs: []string{"figure1", "table6"},
		Opts: &opts, Extended: true,
		Timeout: time.Second, Retries: 2, RetryBackoff: 50 * time.Millisecond,
		MaxRSD: 0.1, QualityRetries: 3,
	}
	var buf bytes.Buffer
	if err := writeMsg(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readMsg(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != in.Type || out.V != in.V || out.Seq != in.Seq ||
		out.Machine != in.Machine || out.Key != in.Key || len(out.IDs) != 2 ||
		out.Timeout != in.Timeout || out.RetryBackoff != in.RetryBackoff ||
		out.MaxRSD != in.MaxRSD || !out.Extended {
		t.Errorf("round trip mangled the frame: %+v", out)
	}
	if out.Opts == nil || out.Opts.MemSize != opts.MemSize ||
		out.Opts.Timing.MinSampleTime != opts.Timing.MinSampleTime {
		t.Errorf("options did not survive: %+v", out.Opts)
	}
}

// TestWorkerServesUnits drives the session loop directly over in-memory
// pipes: a well-formed unit produces entries, an unknown machine an
// error frame, and a version mismatch kills the session.
func TestWorkerServesUnits(t *testing.T) {
	toWorker, unitW := io.Pipe()
	resultR, fromWorker := io.Pipe()
	workErr := make(chan error, 1)
	go func() { workErr <- work(context.Background(), nil, func(bool) {}, toWorker, fromWorker) }()
	s := newSession(resultR, unitW)

	opts := fastOpts()
	if err := s.send(&wireMsg{
		Type: msgUnit, V: protoVersion, Seq: 1,
		Machine: testMachines[0], Key: "tlb", IDs: []string{"table16"}, Opts: &opts,
	}); err != nil {
		t.Fatal(err)
	}
	var res *wireMsg
	for {
		m, err := s.recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Type == msgResult {
			res = m
			break
		}
		if m.Type != msgEvent || m.Event == nil {
			t.Fatalf("unexpected frame %+v", m)
		}
	}
	if res.Seq != 1 || res.Err != "" || len(res.Entries) == 0 {
		t.Fatalf("result = %+v", res)
	}

	if err := s.send(&wireMsg{Type: msgUnit, V: protoVersion, Seq: 2, Machine: "no-such-machine", Opts: &opts}); err != nil {
		t.Fatal(err)
	}
	res2, err := s.recv()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Err == "" || !strings.Contains(res2.Err, "no-such-machine") {
		t.Fatalf("want unknown-machine error, got %+v", res2)
	}

	if err := s.send(&wireMsg{Type: msgUnit, V: protoVersion + 1, Seq: 3, Machine: testMachines[0], Opts: &opts}); err != nil {
		t.Fatal(err)
	}
	if err := <-workErr; err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("want version-mismatch session error, got %v", err)
	}
}

// TestFleetMatchesSerial runs the selection across pools of 1, 2 and
// 3 worker daemons and requires serial bytes from each.
func TestFleetMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet runs are slow; skipped with -short")
	}
	want := serialBytes(t)
	for _, workers := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			db := &results.DB{}
			c := &Coordinator{
				Machines: testMachines, Opts: fastOpts(), Only: testOnly,
				Connect: startDaemons(t, workers),
			}
			if _, err := c.Run(context.Background(), db); err != nil {
				t.Fatal(err)
			}
			if got := encode(t, db); !bytes.Equal(got, want) {
				t.Errorf("fleet database differs from serial (%d vs %d bytes)", len(got), len(want))
			}
		})
	}
}

// TestServeMatchesSerial proves the TCP transport: a worker daemon in
// this process serves a coordinator dialing over loopback.
func TestServeMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet runs are slow; skipped with -short")
	}
	want := serialBytes(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ln, err := listenLoopback()
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- Serve(ctx, ln) }()

	db := &results.DB{}
	c := &Coordinator{
		Machines: testMachines, Opts: fastOpts(), Only: testOnly,
		Connect: []string{ln.Addr().String()},
	}
	if _, err := c.Run(context.Background(), db); err != nil {
		t.Fatal(err)
	}
	if got := encode(t, db); !bytes.Equal(got, want) {
		t.Errorf("TCP fleet database differs from serial")
	}
	cancel()
	if err := <-served; err != nil && err != context.Canceled {
		t.Errorf("Serve: %v", err)
	}
}

// TestWorkerKillRedispatch SIGKILLs a worker daemon process mid-run
// and proves the orphaned unit is re-dispatched to the surviving
// daemon: the run still completes with byte-identical results, and the
// pool reports the death.
func TestWorkerKillRedispatch(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process runs are slow; skipped with -short")
	}
	want := serialBytes(t)
	victim, proc := startDaemonProcess(t)
	obs := &testObserver{}
	c := &Coordinator{
		Machines: testMachines, Opts: fastOpts(), Only: testOnly,
		Connect: append([]string{victim}, startDaemons(t, 1)...),
		Obs:     obs,
	}
	var killOnce sync.Once
	obs.onDone = func(done int) {
		// After the first completion the pool is warm; kill the daemon
		// process while the rest of the queue is still draining.
		killOnce.Do(func() { _ = proc.Kill() })
	}
	db := &results.DB{}
	if _, err := c.Run(context.Background(), db); err != nil {
		t.Fatal(err)
	}
	if got := encode(t, db); !bytes.Equal(got, want) {
		t.Errorf("post-kill fleet database differs from serial")
	}
	if _, down, _, done := obs.counts(); down == 0 || done != len(testMachines)*3 {
		t.Errorf("observer saw down=%d done=%d, want a worker death and %d units",
			down, done, len(testMachines)*3)
	}
}

// TestCoordinatorResume cancels a journaled fleet run partway through,
// then resumes it from the journal: already-completed units replay
// instead of re-running, and the final database is byte-identical.
func TestCoordinatorResume(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet runs are slow; skipped with -short")
	}
	want := serialBytes(t)
	daemons := startDaemons(t, 2)
	path := filepath.Join(t.TempDir(), "fleet.jnl")

	// First run: cancel after two units land.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obs := &testObserver{onDone: func(done int) {
		if done == 2 {
			cancel()
		}
	}}
	jw, err := core.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	c := &Coordinator{
		Machines: testMachines, Opts: fastOpts(), Only: testOnly,
		Connect: daemons, Journal: jw, Obs: obs,
	}
	if _, err := c.Run(ctx, &results.DB{}); err == nil {
		t.Fatal("cancelled run reported success")
	}
	_ = jw.Close()

	// Second run: resume. Journaled units must replay, not re-run.
	replay, err := core.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer replay.Close()
	if replay.Len() < 2 {
		t.Fatalf("journal holds %d records, want >= 2", replay.Len())
	}
	obs2 := &testObserver{}
	c2 := &Coordinator{
		Machines: testMachines, Opts: fastOpts(), Only: testOnly,
		Connect: daemons, Journal: replay, Obs: obs2,
	}
	db := &results.DB{}
	if _, err := c2.Run(context.Background(), db); err != nil {
		t.Fatal(err)
	}
	if got := encode(t, db); !bytes.Equal(got, want) {
		t.Errorf("resumed fleet database differs from serial")
	}
	if _, _, _, done := obs2.counts(); done != len(testMachines)*3 {
		t.Errorf("resume completed %d units, want %d", done, len(testMachines)*3)
	}
	up, _, _, _ := obs2.counts()
	if up == 0 {
		t.Error("resume dialed no workers despite remaining units")
	}
}

func TestMachineNames(t *testing.T) {
	var ms []core.Machine
	for _, n := range testMachines {
		p, _ := machines.ByName(n)
		m, err := machines.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	names, err := MachineNamesIn(nil, ms)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range testMachines {
		if names[i] != n {
			t.Errorf("names[%d] = %q, want %q", i, names[i], n)
		}
	}
	if _, err := MachineNamesIn(nil, []core.Machine{renamed{ms[0]}}); err == nil {
		t.Error("non-profile machine must be rejected")
	}
}

// renamed wraps a machine under a name no profile has.
type renamed struct{ core.Machine }

func (renamed) Name() string { return "ad-hoc" }

func TestCoordinatorValidation(t *testing.T) {
	// Validation precedes dialing, so the address is never contacted.
	unused := []string{"127.0.0.1:1"}
	if _, err := (&Coordinator{Machines: []string{"no-such"}, Connect: unused}).Run(context.Background(), &results.DB{}); err == nil {
		t.Error("unknown machine must fail")
	}
	if _, err := (&Coordinator{Machines: testMachines}).Run(context.Background(), &results.DB{}); err == nil {
		t.Error("no daemons to connect to must fail")
	}
	skipped, err := (&Coordinator{Connect: unused}).Run(context.Background(), &results.DB{})
	if err != nil || len(skipped) != 0 {
		t.Errorf("empty machine list: %v, %v", skipped, err)
	}
}

// TestCoordinatorRefusesCrossModeJournal: a journal from the other
// sweep mode fails the run with the ledger's refusal, before any
// daemon is dialed (the address is never contacted).
func TestCoordinatorRefusesCrossModeJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "adaptive.jnl")
	jw, err := core.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.Record(core.JournalRecord{
		Machine: testMachines[0], Key: "table2",
		Entries: []results.Entry{{
			Benchmark: "bw_mem.read", Machine: testMachines[0], Unit: "MB/s", Scalar: 1,
			Attrs: map[string]string{"sweep.mode": string(core.SweepAdaptive)},
		}},
	}); err != nil {
		t.Fatal(err)
	}
	_ = jw.Close()
	replay, err := core.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer replay.Close()
	c := &Coordinator{
		Machines: testMachines, Opts: fastOpts(), Only: testOnly,
		Connect: []string{"127.0.0.1:1"}, DialRetries: -1, Journal: replay,
	}
	_, err = c.Run(context.Background(), &results.DB{})
	if err == nil || !strings.Contains(err.Error(), "adaptive-sweep results") {
		t.Errorf("cross-mode journal: err = %v, want the adaptive-sweep refusal", err)
	}
}
