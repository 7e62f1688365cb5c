// Package fleet executes the benchmark suite across remote worker
// daemons.
//
// The paper's third contribution is a results database built by running
// one suite on many machines; this package is the multi-host step that
// makes such a sweep outgrow a single host. A Coordinator partitions
// the evaluation into work units — one experiment group on one
// simulated machine, the same unit the suite journals and replays
// (core.WorkUnit) — and dispatches them to worker daemons (Serve, or
// `lmbench -fleet-listen`) dialed over TCP, speaking a length-prefixed
// JSONL protocol framed with internal/rpcx's record-marking discipline.
// On one host, core.Runner's in-process parallelism does the same work
// without the process and wire overhead.
//
// Determinism: a unit's result is exactly what a serial Suite.Run
// produces for that group — workers build the named machine fresh from
// its profile and the suite resets it before every attempt — and the
// coordinator merges unit results in machine × group order, the serial
// iteration order. A fleet run of any pool size therefore encodes
// byte-identically to the serial and in-process-parallel runs, which
// the golden test pins against the committed SHA-256.
//
// Robustness rides the suite's own seams: a dead, killed or silent
// daemon's in-flight unit is re-dispatched to the surviving daemons
// under the suite's capped doubling backoff (core.NextBackoff); the
// coordinator finds and records finished units through the suite's
// core.UnitLedger, so serial and fleet journals are interchangeable and
// a kill -9 of the coordinator itself resumes with -resume; and an
// Observer (obs.FleetMetrics) sees workers, queue depths and dispatch
// latency out of band.
package fleet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/results"
	"repro/internal/rpcx"
)

// protoVersion guards the wire protocol: a worker daemon built from
// different sources refuses mismatched units instead of producing
// silently divergent results. v2 added ping frames (idle keepalives and
// in-unit heartbeats), which a v1 endpoint would reject as unexpected.
const protoVersion = 2

// maxFrameBytes bounds one protocol frame. The largest legitimate
// payload — a Figure-1 series fragment with quality attrs — is a few
// hundred kilobytes; 16MB keeps the bound far from real traffic while
// still refusing a corrupt length prefix.
const maxFrameBytes = 16 << 20

// Message types.
const (
	msgUnit   = "unit"   // coordinator → worker: execute one work unit
	msgEvent  = "event"  // worker → coordinator: one suite lifecycle event
	msgResult = "result" // worker → coordinator: the unit's outcome
	// msgPing flows both ways and is ignored by the receiver; it exists
	// purely to keep idle deadlines from firing on healthy sessions.
	// The coordinator pings an idle worker so the daemon's idle
	// timeout doesn't reap it between units; a worker heartbeats during
	// unit execution so the coordinator's peer timeout doesn't declare
	// it dead mid-measurement.
	msgPing = "ping"
)

// wireMsg is one protocol frame: a JSON object, record-framed. A flat
// struct with a type tag keeps the codec to one Marshal/Unmarshal and
// the stream greppable.
type wireMsg struct {
	Type string `json:"type"`
	// V is the protocol version, set on unit dispatches.
	V int `json:"v,omitempty"`
	// Seq identifies the work unit (unit and result frames).
	Seq int `json:"seq"`

	// Unit dispatch fields.
	Machine        string        `json:"machine,omitempty"`
	Key            string        `json:"key,omitempty"`
	IDs            []string      `json:"ids,omitempty"`
	Opts           *core.Options `json:"opts,omitempty"`
	Extended       bool          `json:"extended,omitempty"`
	Timeout        time.Duration `json:"timeout,omitempty"`
	Retries        int           `json:"retries,omitempty"`
	RetryBackoff   time.Duration `json:"retry_backoff,omitempty"`
	MaxRSD         float64       `json:"max_rsd,omitempty"`
	QualityRetries int           `json:"quality_retries,omitempty"`
	// Profile ships the machine's full profile when Machine is not a
	// compiled-in name (file-loaded or calibration-candidate profiles):
	// the worker builds from it instead of resolving the name locally.
	// Omitted for compiled built-ins, so their frames — and the fleet
	// golden bytes — are unchanged. Optional fields are JSON-compatible
	// across the protocol version.
	Profile *machines.Profile `json:"profile,omitempty"`

	// Result fields. Entries round-trip exactly: encoding/json writes
	// float64s in shortest form that parses back to the same bits, the
	// property the journal relies on too.
	Entries []results.Entry `json:"entries,omitempty"`
	Skipped []string        `json:"skipped,omitempty"`
	Err     string          `json:"error,omitempty"`

	// Event carries one forwarded suite event.
	Event *core.Event `json:"event,omitempty"`
}

// writeMsg frames and sends one message.
func writeMsg(w io.Writer, m *wireMsg) error {
	b, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("fleet: encode %s: %w", m.Type, err)
	}
	return rpcx.WriteFrame(w, b)
}

// readMsg receives and decodes one message.
func readMsg(r io.Reader) (*wireMsg, error) {
	b, err := rpcx.ReadFrame(r, maxFrameBytes)
	if err != nil {
		return nil, err
	}
	var m wireMsg
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("fleet: decode frame: %w", err)
	}
	return &m, nil
}

// session pairs a buffered reader with a writer for one protocol
// endpoint.
type session struct {
	r *bufio.Reader
	w io.Writer
}

func newSession(r io.Reader, w io.Writer) *session {
	return &session{r: bufio.NewReader(r), w: w}
}

func (s *session) send(m *wireMsg) error   { return writeMsg(s.w, m) }
func (s *session) recv() (*wireMsg, error) { return readMsg(s.r) }
