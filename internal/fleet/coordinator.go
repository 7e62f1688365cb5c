package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/results"
)

// Observer sees the coordinator's scheduling activity out of band —
// the fleet analogue of the suite's event stream for state that has no
// experiment to hang off. obs.FleetMetrics implements it; nil means
// unobserved. Implementations must be safe for concurrent use.
type Observer interface {
	// WorkerUp and WorkerDown bracket one worker's lifetime in the
	// pool; err carries the transport failure that killed it.
	WorkerUp(id string)
	WorkerDown(id string, err error)
	// QueueDepth reports the current number of units awaiting dispatch
	// and in flight, whenever either changes.
	QueueDepth(queued, inflight int)
	// UnitDispatched reports how long a unit waited in the queue
	// before being sent to a worker.
	UnitDispatched(wait time.Duration)
	// UnitDone reports one unit completing (run, skipped, replayed or
	// served from the unit cache).
	UnitDone()
	// UnitRetried reports one unit being re-queued after its worker
	// died mid-flight.
	UnitRetried()
}

// noopObserver stands in for a nil Observer.
type noopObserver struct{}

func (noopObserver) WorkerUp(string)              {}
func (noopObserver) WorkerDown(string, error)     {}
func (noopObserver) QueueDepth(int, int)          {}
func (noopObserver) UnitDispatched(time.Duration) {}
func (noopObserver) UnitDone()                    {}
func (noopObserver) UnitRetried()                 {}

// defaultUnitRetries is the unit re-dispatch budget when UnitRetries
// is zero.
const defaultUnitRetries = 3

// Coordinator executes the evaluation across a pool of remote worker
// daemons. It is the fleet counterpart of core.Runner: machines (by
// simulated-profile name) × experiment groups become work units,
// daemons execute them in any order, and results merge in unit order
// so the database encodes byte-identically to a serial run.
type Coordinator struct {
	// Machines are the simulated-machine profile names, in merge order.
	Machines []string
	// Catalog resolves the names; nil means the shipped default
	// (compiled built-ins plus embedded data files). Profiles that are
	// not compiled into the binary are shipped to workers inline on the
	// unit frame, so a fleet of stock workers can run file-loaded or
	// calibration-candidate machines.
	Catalog *machines.Catalog
	// Opts applies to every unit, exactly as a serial Suite would see
	// it (SweepShards included — sweep-heavy units additionally shard
	// their point range across goroutines inside the worker).
	Opts core.Options
	// Only restricts the run to these experiment IDs (nil = all);
	// Extended adds the §7 experiments.
	Only     map[string]bool
	Extended bool
	// Events receives the merged event stream of every worker plus the
	// coordinator's machine bracketing events; nil discards it. Sinks
	// must be concurrency-safe (the provided ones are).
	Events core.EventSink
	// Connect lists the worker daemons (Serve / `lmbench
	// -fleet-listen`) to dial into the pool; at least one is required.
	// Each address is one connection, so repeating an address gives
	// that daemon several concurrent sessions.
	Connect []string
	// Timeout, Retries, RetryBackoff, MaxRSD and QualityRetries are
	// forwarded to each worker's Suite, so in-worker behavior matches a
	// serial run; see core.Suite.
	Timeout        time.Duration
	Retries        int
	RetryBackoff   time.Duration
	MaxRSD         float64
	QualityRetries int
	// UnitRetries is how many times a unit orphaned by a dead worker is
	// re-dispatched (with doubling backoff, capped at 30s) before the
	// run fails; 0 means the default of 3. This budget is consumed by
	// worker deaths only — an error the experiment itself reports is
	// already retried inside the worker under Retries and aborts the
	// run, matching serial semantics.
	UnitRetries int
	// Journal and Cache are the run's stores of finished units, used
	// exactly as core.Suite uses them (see core.UnitLedger): every unit
	// either store already holds is served before dispatch, so a
	// fully-warm run dials no daemon, and results merge at the unit's
	// position in merge order, so resumed, cold and warm runs are
	// byte-identical. The journal format is the serial suite's, so
	// fleet and serial runs resume one another's journals.
	Journal *core.Journal
	Cache   core.UnitCache
	// PeerTimeout is the idle read deadline on worker connections: a
	// daemon silent for this long — workers heartbeat every 5s while
	// executing — is declared dead and its unit re-dispatched. Zero
	// means the DialOptions default (60s); negative disables. While a
	// worker sits idle the coordinator pings it every idlePingInterval
	// so the daemon's own idle timeout doesn't reap a healthy session
	// between units.
	PeerTimeout time.Duration
	// DialRetries and DialBackoff shape the capped-backoff retry when
	// dialing Connect addresses (see DialOptions); zero means defaults.
	DialRetries int
	DialBackoff time.Duration
	// WrapConn, when set, wraps every dialed connection — the
	// chaos seam (netfaults installs its injector here).
	WrapConn func(net.Conn) net.Conn
	// Obs sees scheduling activity; nil means unobserved.
	Obs Observer
}

// unitResult is one unit's terminal state.
type unitResult struct {
	done    bool
	entries []results.Entry
	skipped []string
	err     error
}

// run is the state of one Coordinator.Run invocation.
type run struct {
	c      *Coordinator
	ctx    context.Context
	cancel context.CancelFunc
	sink   core.EventSink
	obs    Observer
	opts   core.Options
	units  []core.WorkUnit
	groups map[string]core.ExperimentGroup
	ledger core.UnitLedger
	// wireProfiles holds, per machine, the profile to ship on unit
	// frames (nil entry / missing key = compiled built-in, resolved by
	// name on the worker).
	wireProfiles map[string]*machines.Profile
	queue        chan int
	wg           sync.WaitGroup

	mu           sync.Mutex
	res          []unitResult
	attempts     []int
	backoff      []time.Duration
	enqueuedAt   []time.Time
	outstanding  int
	queued       int
	inflight     int
	liveWorkers  int
	workers      []*netWorker
	pending      map[string]int // units per machine not yet terminal
	machineT     map[string]time.Time
	machineBegun map[string]bool
	doneOnce     sync.Once
	done         chan struct{}
}

func (c *Coordinator) unitRetries() int {
	if c.UnitRetries > 0 {
		return c.UnitRetries
	}
	return defaultUnitRetries
}

// Run executes the suite on every machine through the worker pool and
// merges all entries into db, returning each machine's skipped
// experiments keyed by name. The semantics mirror core.Runner.Run: on
// failure the first error in unit order is returned wrapped with the
// machine's name, and everything that completed is still merged.
func (c *Coordinator) Run(ctx context.Context, db *results.DB) (map[string][]string, error) {
	opts, err := c.Opts.Normalize()
	if err != nil {
		return nil, err
	}
	if len(c.Machines) == 0 {
		return map[string][]string{}, nil
	}
	cat := c.Catalog
	if cat == nil {
		cat = machines.Default()
	}
	// Profiles outside the compiled catalog travel on the unit frame;
	// resolve them once up front so every dispatch of a unit ships the
	// same bytes.
	wireProfiles := make(map[string]*machines.Profile)
	for _, name := range c.Machines {
		p, ok := cat.ByName(name)
		if !ok {
			return nil, fmt.Errorf("fleet: unknown simulated machine %q", name)
		}
		if compiled, ok := machines.ByName(name); !ok || !reflect.DeepEqual(compiled, p) {
			pc := p
			wireProfiles[name] = &pc
		}
	}
	if len(c.Connect) == 0 {
		return nil, errors.New("fleet: coordinator needs at least one worker daemon to connect to")
	}

	exps := core.Experiments()
	if c.Extended {
		exps = append(exps, core.Extensions()...)
	}
	groups := core.GroupExperiments(exps, c.Only)
	byKey := make(map[string]core.ExperimentGroup, len(groups))
	for _, g := range groups {
		byKey[g.Key] = g
	}
	units := core.UnitsFor(c.Machines, groups)

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	r := &run{
		c: c, ctx: runCtx, cancel: cancel,
		sink: sinkOrDiscard(c.Events), obs: obsOrNoop(c.Obs),
		opts: opts, units: units, groups: byKey,
		ledger:       core.UnitLedger{Journal: c.Journal, Cache: c.Cache, Mode: opts.SweepMode},
		wireProfiles: wireProfiles,
		// Buffered past the total attempt budget so a delayed
		// re-enqueue never blocks and never races a shutdown.
		queue:      make(chan int, len(units)*(c.unitRetries()+1)+1),
		res:        make([]unitResult, len(units)),
		attempts:   make([]int, len(units)),
		backoff:    make([]time.Duration, len(units)),
		enqueuedAt: make([]time.Time, len(units)),
		pending:    map[string]int{}, machineT: map[string]time.Time{},
		machineBegun: map[string]bool{},
		outstanding:  len(units),
		done:         make(chan struct{}),
	}
	for _, u := range units {
		r.pending[u.Machine]++
	}

	// Serve every unit the journal or the cache already holds, in unit
	// order, before any dispatch. A lookup error (a cross-mode journal,
	// a failed journal write) fails its unit and aborts the run before
	// any daemon is dialed.
	for i, u := range units {
		rec, kind, found, err := r.ledger.Lookup(u.Machine, u.Key)
		if err != nil {
			r.mu.Lock()
			r.res[i] = unitResult{done: true, err: err}
			r.mu.Unlock()
			r.finishUnit(u, err.Error())
			cancel()
			break
		}
		if !found {
			continue
		}
		g := byKey[u.Key]
		r.beginMachine(u.Machine)
		r.sink.Event(core.Event{
			Kind: kind, Time: time.Now(), Machine: u.Machine,
			Experiment: g.Exp.ID, Title: g.Exp.Title, Entries: len(rec.Entries),
		})
		res := unitResult{done: true}
		if rec.Skipped {
			res.skipped = []string{g.Exp.ID}
		} else {
			res.entries = rec.Entries
		}
		r.mu.Lock()
		r.res[i] = res
		r.mu.Unlock()
		r.obs.UnitDone()
		r.finishUnit(u, "")
	}

	// Queue the remainder and start the pool.
	remaining := 0
	for i := range units {
		r.mu.Lock()
		queuedAlready := r.res[i].done
		r.mu.Unlock()
		if !queuedAlready {
			remaining++
			r.enqueue(i, 0)
		}
	}
	if remaining > 0 && runCtx.Err() == nil {
		for _, addr := range c.Connect {
			w, err := DialWith(runCtx, addr, DialOptions{
				Retries: c.DialRetries, Backoff: c.DialBackoff,
				PeerTimeout: c.PeerTimeout, WrapConn: c.WrapConn,
			})
			if err != nil {
				cancel()
				r.shutdown()
				return nil, err
			}
			r.startWorker(w)
		}
	}

	select {
	case <-r.done:
	case <-runCtx.Done():
	}
	cancel()
	r.shutdown()

	return r.merge(ctx, db)
}

// enqueue makes unit i dispatchable after delay. The queue channel is
// buffered past the total attempt budget, so sends never block; a
// delayed send can only fire while its unit is still outstanding, so it
// can never race run teardown into a closed channel (the channel is
// never closed at all — workers drain it until the run context ends).
func (r *run) enqueue(i int, delay time.Duration) {
	r.mu.Lock()
	r.enqueuedAt[i] = time.Now()
	r.queued++
	q, f := r.queued, r.inflight
	r.mu.Unlock()
	r.obs.QueueDepth(q, f)
	if delay <= 0 {
		r.queue <- i
		return
	}
	time.AfterFunc(delay, func() {
		select {
		case <-r.ctx.Done():
		default:
			r.queue <- i
		}
	})
}

// startWorker registers w in the pool and starts its drive loop.
func (r *run) startWorker(w *netWorker) {
	r.mu.Lock()
	r.workers = append(r.workers, w)
	r.liveWorkers++
	r.mu.Unlock()
	r.obs.WorkerUp(w.id())
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.workerLoop(w)
	}()
}

// idlePingInterval is how often the coordinator pings a worker that
// has no unit in flight, well inside the daemon's 60s idle timeout.
const idlePingInterval = 10 * time.Second

// workerLoop pulls units off the queue and drives them through w until
// the run ends or the worker dies. Workers are pinged while idle; a
// failed ping retires the worker exactly as a failed dispatch would,
// except there is no unit to re-queue.
func (r *run) workerLoop(w *netWorker) {
	ping := time.NewTicker(idlePingInterval)
	defer ping.Stop()
	for {
		select {
		case <-r.ctx.Done():
			return
		case <-ping.C:
			if err := w.send(&wireMsg{Type: msgPing}); err != nil {
				r.workerGone(w, err)
				return
			}
		case i := <-r.queue:
			r.mu.Lock()
			if r.res[i].done { // late duplicate enqueue; nothing to do
				r.mu.Unlock()
				continue
			}
			wait := time.Since(r.enqueuedAt[i])
			r.queued--
			r.inflight++
			q, f := r.queued, r.inflight
			r.mu.Unlock()
			r.obs.QueueDepth(q, f)
			r.obs.UnitDispatched(wait)
			if err := r.driveUnit(w, i); err != nil {
				// Transport failure: the worker is dead. Put the unit
				// back under the retry policy and retire this loop.
				r.mu.Lock()
				r.inflight--
				r.liveWorkers--
				live := r.liveWorkers
				q, f = r.queued, r.inflight
				r.mu.Unlock()
				r.obs.QueueDepth(q, f)
				r.obs.WorkerDown(w.id(), err)
				w.close()
				r.redispatch(i, err, live)
				return
			}
		}
	}
}

// workerGone retires a worker that died with no unit in flight (an
// idle ping failed). If it was the last worker and units are still
// queued, the run cannot finish — the next queued unit is failed so
// the run terminates instead of hanging.
func (r *run) workerGone(w *netWorker, cause error) {
	r.mu.Lock()
	r.liveWorkers--
	live := r.liveWorkers
	r.mu.Unlock()
	r.obs.WorkerDown(w.id(), cause)
	w.close()
	if live > 0 {
		return
	}
	select {
	case i := <-r.queue:
		r.mu.Lock()
		r.queued--
		r.inflight++
		r.mu.Unlock()
		r.fail(i, fmt.Errorf("fleet: worker pool died: %w", cause))
	default:
	}
}

// driveUnit sends unit i to w and pumps its frames until the result
// arrives. A non-nil error means the transport failed and the unit's
// fate is unknown — the caller re-dispatches it.
func (r *run) driveUnit(w *netWorker, i int) error {
	u := r.units[i]
	r.beginMachine(u.Machine)
	err := w.send(&wireMsg{
		Type: msgUnit, V: protoVersion, Seq: u.Seq,
		Machine: u.Machine, Key: u.Key, IDs: u.IDs,
		Profile: r.wireProfiles[u.Machine],
		Opts:    &r.opts, Extended: r.c.Extended,
		Timeout: r.c.Timeout, Retries: r.c.Retries, RetryBackoff: r.c.RetryBackoff,
		MaxRSD: r.c.MaxRSD, QualityRetries: r.c.QualityRetries,
	})
	if err != nil {
		return err
	}
	skipErr := ""
	for {
		m, err := w.recv()
		if err != nil {
			return err
		}
		switch m.Type {
		case msgPing:
			// In-unit heartbeat; its arrival already re-armed the idle
			// deadline.
		case msgEvent:
			if m.Event != nil {
				if m.Event.Kind == core.ExperimentSkipped {
					skipErr = m.Event.Err
				}
				r.sink.Event(*m.Event)
			}
		case msgResult:
			if m.Seq != u.Seq {
				return fmt.Errorf("fleet: result for unit %d, want %d", m.Seq, u.Seq)
			}
			return r.complete(i, m, skipErr)
		default:
			return fmt.Errorf("fleet: unexpected %q frame from worker", m.Type)
		}
	}
}

// complete records unit i's result frame. Only transport problems
// return an error (there are none here); a unit whose experiment failed
// is terminal and aborts the run, matching serial semantics.
func (r *run) complete(i int, m *wireMsg, skipErr string) error {
	u := r.units[i]
	if m.Err != "" {
		r.fail(i, errors.New(m.Err))
		return nil
	}
	// Record before marking done, so a completed-but-unrecorded unit is
	// impossible: a coordinator killed in between simply re-runs it.
	rec := core.JournalRecord{Machine: u.Machine, Key: u.Key}
	if len(m.Skipped) > 0 {
		rec.Skipped, rec.Err = true, skipErr
	} else {
		rec.Entries = m.Entries
	}
	if err := r.ledger.Record(rec); err != nil {
		r.fail(i, err)
		return nil
	}
	r.mu.Lock()
	r.res[i] = unitResult{done: true, entries: m.Entries, skipped: m.Skipped}
	r.inflight--
	q, f := r.queued, r.inflight
	r.mu.Unlock()
	r.obs.QueueDepth(q, f)
	r.obs.UnitDone()
	r.finishUnit(u, "")
	return nil
}

// fail marks unit i terminally failed and aborts the run, the fleet
// version of the scheduler's cancel-the-pool-on-error rule.
func (r *run) fail(i int, err error) {
	u := r.units[i]
	r.mu.Lock()
	r.res[i] = unitResult{done: true, err: err}
	r.inflight--
	q, f := r.queued, r.inflight
	r.mu.Unlock()
	r.obs.QueueDepth(q, f)
	r.finishUnit(u, err.Error())
	r.cancel()
}

// redispatch re-queues unit i after its worker died, with doubling
// backoff; when the attempt budget is spent the run fails. live is the
// surviving worker count: the coordinator cannot respawn a daemon it
// didn't start, so with none left the run fails instead of waiting on
// a queue nobody drains.
func (r *run) redispatch(i int, cause error, live int) {
	u := r.units[i]
	r.mu.Lock()
	if r.res[i].done {
		r.mu.Unlock()
		return
	}
	r.attempts[i]++
	attempts := r.attempts[i]
	if r.backoff[i] == 0 {
		r.backoff[i] = core.DefaultRetryBackoff
	}
	delay := r.backoff[i]
	r.backoff[i] = core.NextBackoff(delay)
	r.mu.Unlock()
	if attempts > r.c.unitRetries() {
		r.fail(i, fmt.Errorf("fleet: unit %s/%s lost its worker %d times: %w",
			u.Machine, u.Key, attempts, cause))
		return
	}
	if live == 0 {
		r.fail(i, fmt.Errorf("fleet: worker pool died: %w", cause))
		return
	}
	r.obs.UnitRetried()
	r.enqueue(i, delay)
}

// beginMachine emits MachineStarted once per machine, at its first
// dispatched or replayed unit.
func (r *run) beginMachine(machine string) {
	r.mu.Lock()
	if r.machineBegun[machine] {
		r.mu.Unlock()
		return
	}
	r.machineBegun[machine] = true
	r.machineT[machine] = time.Now()
	r.mu.Unlock()
	r.sink.Event(core.Event{Kind: core.MachineStarted, Time: time.Now(), Machine: machine})
}

// finishUnit retires one unit: machine bookkeeping, the run-complete
// gate, and MachineFinished when the machine's last unit lands.
func (r *run) finishUnit(u core.WorkUnit, errText string) {
	r.mu.Lock()
	r.pending[u.Machine]--
	machineDone := r.pending[u.Machine] == 0
	start := r.machineT[u.Machine]
	r.outstanding--
	allDone := r.outstanding == 0
	r.mu.Unlock()
	if machineDone {
		ev := core.Event{
			Kind: core.MachineFinished, Time: time.Now(), Machine: u.Machine,
			Duration: time.Since(start), Err: errText,
		}
		r.sink.Event(ev)
	}
	if allDone {
		r.doneOnce.Do(func() { close(r.done) })
	}
}

// shutdown tears the pool down: every worker is disconnected (which
// unblocks any pending recv) and the drive loops are joined.
func (r *run) shutdown() {
	r.mu.Lock()
	workers := append([]*netWorker(nil), r.workers...)
	r.mu.Unlock()
	for _, w := range workers {
		w.close()
	}
	r.wg.Wait()
}

// merge assembles the final database and skip map in unit order — the
// serial iteration order, which is what makes fleet bytes identical to
// serial bytes — and reports the first error in that order.
func (r *run) merge(ctx context.Context, db *results.DB) (map[string][]string, error) {
	skipped := map[string][]string{}
	var firstErr error
	for i, u := range r.units {
		res := r.res[i]
		if !res.done {
			continue // abandoned when the run aborted
		}
		if res.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", u.Machine, res.err)
			}
			continue
		}
		for _, e := range res.entries {
			if err := db.Add(e); err != nil {
				return skipped, fmt.Errorf("%s/%s: add %q: %w", u.Machine, u.Key, e.Benchmark, err)
			}
		}
		if len(res.skipped) > 0 {
			skipped[u.Machine] = append(skipped[u.Machine], res.skipped...)
		}
	}
	if firstErr == nil && ctx.Err() != nil {
		firstErr = ctx.Err()
	}
	return skipped, firstErr
}

// sinkOrDiscard mirrors core's nil-sink rule.
func sinkOrDiscard(s core.EventSink) core.EventSink {
	if s == nil {
		return discardSink{}
	}
	return s
}

type discardSink struct{}

func (discardSink) Event(core.Event) {}

func obsOrNoop(o Observer) Observer {
	if o == nil {
		return noopObserver{}
	}
	return o
}
