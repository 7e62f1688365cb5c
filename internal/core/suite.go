package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/results"
	"repro/internal/stats"
	"repro/internal/timing"
)

// Experiment ties one of the paper's tables or figures to the code
// that regenerates it.
type Experiment struct {
	// ID is the experiment key, e.g. "table2" or "figure1".
	ID string
	// Title is the paper's caption.
	Title string
	// Benchmarks lists the result-database keys this experiment
	// produces (prefix match for per-medium families).
	Benchmarks []string
	// Run executes the experiment on a machine. The context carries
	// the per-experiment deadline and cancellation; drivers check it
	// between measurement batches so a cancelled run stops promptly.
	Run func(ctx context.Context, m Machine, opts Options) ([]results.Entry, error)
	// RunKey groups experiments that share one Run invocation (e.g.
	// Figure 2 and Table 10 come from the same sweep). Empty means
	// the experiment runs on its own.
	RunKey string
}

// Experiments returns the paper's evaluation, in presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{
			ID: "table2", Title: "Table 2. Memory bandwidth (MB/s)",
			Benchmarks: []string{"bw_mem.bcopy_libc", "bw_mem.bcopy_unrolled", "bw_mem.read", "bw_mem.write"},
			Run:        BWMem,
		},
		{
			ID: "table3", Title: "Table 3. Pipe and local TCP bandwidth (MB/s)",
			Benchmarks: []string{"bw_ipc.pipe", "bw_ipc.tcp"},
			Run:        BWIPC,
		},
		{
			ID: "table4", Title: "Table 4. Remote TCP bandwidth (MB/s)",
			Benchmarks: []string{"bw_tcp_remote."},
			Run:        BWRemoteTCP,
		},
		{
			ID: "table5", Title: "Table 5. File vs. memory bandwidth (MB/s)",
			Benchmarks: []string{"bw_file.read", "bw_file.mmap"},
			Run:        BWFile,
		},
		{
			ID: "figure1", Title: "Figure 1. Memory latency",
			Benchmarks: []string{"lat_mem_rd"},
			Run:        CacheParams, RunKey: "mem_hier",
		},
		{
			ID: "table6", Title: "Table 6. Cache and memory latency (ns)",
			Benchmarks: []string{"cache."},
			Run:        CacheParams, RunKey: "mem_hier",
		},
		{
			ID: "table7", Title: "Table 7. Simple system call time (microseconds)",
			Benchmarks: []string{"lat_syscall"},
			Run:        LatSyscall,
		},
		{
			ID: "table8", Title: "Table 8. Signal times (microseconds)",
			Benchmarks: []string{"lat_sig.install", "lat_sig.catch"},
			Run:        LatSignal,
		},
		{
			ID: "table9", Title: "Table 9. Process creation time (milliseconds)",
			Benchmarks: []string{"lat_proc.fork", "lat_proc.exec", "lat_proc.sh"},
			Run:        LatProc,
		},
		{
			ID: "figure2", Title: "Figure 2. Context switch times",
			Benchmarks: []string{"lat_ctx"},
			Run:        CtxSweep, RunKey: "ctx",
		},
		{
			ID: "table10", Title: "Table 10. Context switch time (microseconds)",
			Benchmarks: []string{"lat_ctx.2p_0k", "lat_ctx.2p_32k", "lat_ctx.8p_0k", "lat_ctx.8p_32k"},
			Run:        CtxSweep, RunKey: "ctx",
		},
		{
			ID: "table11", Title: "Table 11. Pipe latency (microseconds)",
			Benchmarks: []string{"lat_pipe"},
			Run:        LatIPC, RunKey: "ipc",
		},
		{
			ID: "table12", Title: "Table 12. TCP latency (microseconds)",
			Benchmarks: []string{"lat_tcp", "lat_rpc_tcp"},
			Run:        LatIPC, RunKey: "ipc",
		},
		{
			ID: "table13", Title: "Table 13. UDP latency (microseconds)",
			Benchmarks: []string{"lat_udp", "lat_rpc_udp"},
			Run:        LatIPC, RunKey: "ipc",
		},
		{
			ID: "table14", Title: "Table 14. Remote latencies (microseconds)",
			Benchmarks: []string{"lat_net_remote."},
			Run:        LatRemote,
		},
		{
			ID: "table15", Title: "Table 15. TCP connect latency (microseconds)",
			Benchmarks: []string{"lat_connect"},
			Run:        LatConnect,
		},
		{
			ID: "table16", Title: "Table 16. File system latency (microseconds)",
			Benchmarks: []string{"lat_fs.create", "lat_fs.delete"},
			Run:        LatFS,
		},
		{
			ID: "table17", Title: "Table 17. SCSI I/O overhead (microseconds)",
			Benchmarks: []string{"lat_disk.scsi_overhead"},
			Run:        LatDisk,
		},
	}
}

// ExperimentByID looks up one experiment.
func ExperimentByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// OnlySet turns experiment IDs into a Suite.Only filter. An ID that
// names neither a paper experiment nor an extension is an error, so a
// typo fails the run instead of silently selecting nothing. No IDs
// yields nil, which selects every experiment.
func OnlySet(ids []string) (map[string]bool, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	known := map[string]bool{}
	for _, e := range append(Experiments(), Extensions()...) {
		known[e.ID] = true
	}
	only := make(map[string]bool, len(ids))
	for _, id := range ids {
		if !known[id] {
			return nil, fmt.Errorf("unknown experiment %q", id)
		}
		only[id] = true
	}
	return only, nil
}

// wallMu serializes experiments on machines whose clock reads real
// time (the host backend). Two wall-clock experiments running at once
// would perturb each other's measurements; virtual-clock machines are
// immune and run without the lock.
var wallMu sync.Mutex

// Suite runs experiments on one machine and records results.
type Suite struct {
	M    Machine
	Opts Options
	// Events receives the structured run events (started / finished /
	// retried / skipped / failed); nil discards them. TextSink restores
	// the old progress lines; JSONLSink writes a machine-readable
	// trace.
	Events EventSink
	// Only restricts the run to these experiment IDs (nil = all).
	Only map[string]bool
	// Extended adds the §7 future-work experiments (STREAM, dirty/
	// write latency, TLB, cache-to-cache).
	Extended bool
	// Experiments overrides the experiment list (nil = the registry,
	// plus Extensions when Extended is set). Used by schedulers and
	// tests that inject synthetic experiments.
	Experiments []Experiment
	// Timeout bounds each experiment attempt in wall time; 0 means no
	// per-experiment deadline.
	Timeout time.Duration
	// Retries is how many extra attempts a failing experiment gets
	// before its error aborts the run. Unsupported experiments are
	// never retried; context cancellation is never retried.
	Retries int
	// RetryBackoff is the pause before the first retry, doubling each
	// further attempt (capped at MaxRetryBackoff); default 100ms when
	// Retries > 0. The backoff sleep selects on the run context, so a
	// cancelled run never waits out a pending backoff.
	RetryBackoff time.Duration
	// MaxRSD enables the measurement quality gate when positive. After
	// a successful attempt, the relative spread ((median - min) / min)
	// of each recorded measurement's timed batches is checked; if the
	// noisiest exceeds MaxRSD the experiment is adaptively re-measured
	// (up to QualityRetries times) and a "quality" event is emitted.
	// Accepted entries are stamped with quality.* attrs (sample count,
	// spread, outliers) so reports can flag low-confidence numbers.
	MaxRSD float64
	// QualityRetries caps re-measurements of a noisy experiment;
	// default 2 when the gate is enabled. When the budget is spent the
	// noisy result is accepted but flagged (quality.flagged attr).
	QualityRetries int
	// Journal, when non-nil, is the run's crash-safe journal: records
	// it held at open replay instead of re-executing, and each completed
	// experiment group appends one record as it finishes (see Journal).
	// Replayed entries merge at the same point in the iteration order as
	// live execution, so a resumed database encodes byte-identically to
	// an uninterrupted run.
	Journal *Journal
	// Cache, when non-nil, is the content-addressed unit cache: a group
	// the journal does not hold is looked up before execution (a hit
	// restores its entries without running anything) and stored after
	// it completes. See UnitLedger for the policy and internal/unitcache
	// for the store.
	Cache UnitCache
}

// Run executes the selected experiments and merges their entries into
// db. Experiments a backend does not support (ErrUnsupported) are
// skipped and reported in the returned skip list; duplicate Run
// functions (Figure 2 / Table 10 share one) execute once. A cancelled
// or deadlined ctx stops the run at the next measurement boundary.
func (s *Suite) Run(ctx context.Context, db *results.DB) (skipped []string, err error) {
	if s.M == nil {
		return nil, errors.New("core: suite needs a machine")
	}
	opts, err := s.Opts.Normalize()
	if err != nil {
		return nil, err
	}
	sink := sinkOrDiscard(s.Events)
	exps := s.Experiments
	if exps == nil {
		exps = Experiments()
		if s.Extended {
			exps = append(exps, Extensions()...)
		}
	}
	ledger := UnitLedger{Journal: s.Journal, Cache: s.Cache, Mode: opts.SweepMode}
	for _, group := range GroupExperiments(exps, s.Only) {
		exp, key := group.Exp, group.Key
		if err := ctx.Err(); err != nil {
			return skipped, err
		}
		rec, kind, found, err := ledger.Lookup(s.M.Name(), key)
		if err != nil {
			return skipped, fmt.Errorf("%s: %w", exp.ID, err)
		}
		if found {
			sink.Event(Event{
				Kind: kind, Time: time.Now(), Machine: s.M.Name(),
				Experiment: exp.ID, Title: exp.Title, Entries: len(rec.Entries),
			})
			if rec.Skipped {
				skipped = append(skipped, exp.ID)
				continue
			}
			for _, e := range rec.Entries {
				if err := db.Add(e); err != nil {
					return skipped, fmt.Errorf("%s: replay %q: %w", exp.ID, e.Benchmark, err)
				}
			}
			continue
		}
		entries, runErr := s.runExperiment(ctx, sink, exp, opts)
		rec = JournalRecord{Machine: s.M.Name(), Key: key, Entries: entries}
		switch {
		case IsUnsupported(runErr):
			skipped = append(skipped, exp.ID)
			rec.Skipped, rec.Err = true, runErr.Error()
		case runErr != nil:
			return skipped, fmt.Errorf("%s: %w", exp.ID, runErr)
		}
		for _, e := range entries {
			if err := db.Add(e); err != nil {
				// Entries already merged stay in db; the error names the
				// experiment so a mid-run failure is attributable.
				return skipped, fmt.Errorf("%s: add %q: %w", exp.ID, e.Benchmark, err)
			}
		}
		if err := ledger.Record(rec); err != nil {
			return skipped, fmt.Errorf("%s: %w", exp.ID, err)
		}
	}
	return skipped, nil
}

// The retry backoff policy, shared by the suite's experiment retries
// and the fleet's unit re-dispatch and dial retries: start at
// DefaultRetryBackoff, double per retry, and saturate at
// MaxRetryBackoff, so a large retry budget never escalates a pause into
// multi-hour waits (or overflows the duration entirely).
const (
	DefaultRetryBackoff = 100 * time.Millisecond
	MaxRetryBackoff     = 30 * time.Second
)

// NextBackoff doubles d, saturating at MaxRetryBackoff.
func NextBackoff(d time.Duration) time.Duration {
	if d >= MaxRetryBackoff/2 {
		return MaxRetryBackoff
	}
	return d * 2
}

// runExperiment drives one experiment through the attempt/retry loop
// and the measurement quality gate, emitting lifecycle events along
// the way.
func (s *Suite) runExperiment(ctx context.Context, sink EventSink, exp Experiment, opts Options) ([]results.Entry, error) {
	maxAttempts := 1 + s.Retries
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	backoff := s.RetryBackoff
	if backoff <= 0 {
		backoff = DefaultRetryBackoff
	}
	if backoff > MaxRetryBackoff {
		backoff = MaxRetryBackoff
	}
	qualityLeft := s.QualityRetries
	if s.MaxRSD > 0 && s.QualityRetries == 0 {
		qualityLeft = 2
	}
	// One recorder serves every attempt of this experiment: Reset keeps
	// the backing storage, so re-measurements (retries, the quality
	// gate's re-runs) record into already-grown slices instead of
	// reallocating them.
	var rec *timing.Recorder
	if s.MaxRSD > 0 {
		rec = &timing.Recorder{}
	}
	ev := func(kind EventKind, attempt int, dur time.Duration, entries int, err error, q qualitySummary, sim, sweep map[string]int64) {
		e := Event{
			Kind: kind, Time: time.Now(), Machine: s.M.Name(),
			Experiment: exp.ID, Title: exp.Title,
			Attempt: attempt, Duration: dur, Entries: entries,
			Sim: sim, Sweep: sweep,
		}
		if err != nil {
			e.Err = err.Error()
		}
		if q.Measurements > 0 {
			e.Spread = q.WorstSpread
			e.Samples = q.Samples
		}
		sink.Event(e)
	}
	for attempt := 1; ; attempt++ {
		ev(ExperimentStarted, attempt, 0, 0, nil, qualitySummary{}, nil, nil)
		start := time.Now()
		entries, q, sim, sweep, err := s.attempt(ctx, sink, exp, opts, rec, attempt)
		dur := time.Since(start)
		switch {
		case err == nil:
			noisy := q.WorstSpread > s.MaxRSD || q.Degenerate > 0
			if s.MaxRSD > 0 && q.Measurements > 0 && noisy && qualityLeft > 0 {
				// Too noisy (or degenerate — zero-baseline samples whose
				// spread is undefined): reject the measurement and try
				// again.
				qualityLeft--
				ev(ExperimentQuality, attempt, dur, len(entries), nil, q, nil, nil)
				continue
			}
			if s.MaxRSD > 0 && q.Measurements > 0 {
				stampQuality(entries, q, noisy)
			}
			ev(ExperimentFinished, attempt, dur, len(entries), nil, q, sim, sweep)
			return entries, nil
		case IsUnsupported(err):
			ev(ExperimentSkipped, attempt, dur, 0, err, qualitySummary{}, nil, nil)
			return nil, err
		case ctx.Err() != nil || attempt >= maxAttempts:
			ev(ExperimentFailed, attempt, dur, 0, err, qualitySummary{}, nil, nil)
			return nil, err
		}
		ev(ExperimentRetried, attempt, dur, 0, err, qualitySummary{}, nil, nil)
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(backoff):
		}
		backoff = NextBackoff(backoff)
	}
}

// attempt runs exp once under the per-experiment deadline, holding the
// wall-clock mutex when the machine measures real time and binding the
// context into the backend's blocking primitives when it can accept
// one. When the quality gate is enabled, the caller's recorder rides
// on the context (reset first, keeping its storage) and the attempt's
// sample statistics are summarized for the gate. Sinks implementing
// AttemptProber additionally get a timing.Probe installed on the
// context, so observability can see individual harness batches — out
// of band, never inside a timed interval. On simulated machines the
// first returned map carries the experiment's activity-counter delta
// (SimStatser) for the event stream; the second carries the adaptive
// sweep planner's decision counters, collected via the attempt context
// exactly like the recorder, and stays nil for exhaustive sweeps and
// non-sweep experiments.
func (s *Suite) attempt(ctx context.Context, sink EventSink, exp Experiment, opts Options, rec *timing.Recorder, attempt int) ([]results.Entry, qualitySummary, map[string]int64, map[string]int64, error) {
	if timing.IsRealTime(s.M.Clock()) {
		wallMu.Lock()
		defer wallMu.Unlock()
	}
	// Every attempt starts from pristine machine state (see Resetter):
	// results must not depend on earlier experiments, failed attempts,
	// or quality-gate re-measurements.
	if r, ok := s.M.(Resetter); ok {
		r.Reset()
	}
	// Always derive a per-attempt context: backends that bind it may
	// start a cancellation watchdog, and cancelling here guarantees the
	// watchdog ends with the attempt.
	var cancel context.CancelFunc
	var runCtx context.Context
	if s.Timeout > 0 {
		runCtx, cancel = context.WithTimeout(ctx, s.Timeout)
	} else {
		runCtx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	if rec != nil {
		rec.Reset()
		runCtx = timing.WithRecorder(runCtx, rec)
	}
	if ap, ok := sink.(AttemptProber); ok {
		if p := ap.AttemptProbe(s.M.Name(), exp.ID, attempt); p != nil {
			runCtx = timing.WithProbe(runCtx, p)
		}
	}
	if cb, ok := s.M.(ContextBinder); ok {
		cb.BindContext(runCtx)
		defer cb.BindContext(context.Background())
	}
	var sw *sweepCollector
	if opts.SweepMode == SweepAdaptive {
		sw = &sweepCollector{}
		runCtx = withSweepCollector(runCtx, sw)
	}
	var simBefore map[string]int64
	ss, hasSim := s.M.(SimStatser)
	if hasSim {
		simBefore = ss.SimStats()
	}
	entries, err := exp.Run(runCtx, s.M, opts)
	var q qualitySummary
	if rec != nil && err == nil {
		q = summarizeQuality(rec)
	}
	var sim map[string]int64
	if hasSim && err == nil {
		after := ss.SimStats()
		sim = make(map[string]int64, len(after))
		for k, v := range after {
			if d := v - simBefore[k]; d != 0 {
				sim[k] = d
			}
		}
		if len(sim) == 0 {
			sim = nil
		}
	}
	var sweep map[string]int64
	if sw != nil && err == nil {
		if m, sk := sw.measured.Load(), sw.skipped.Load(); m > 0 || sk > 0 {
			sweep = map[string]int64{
				"points_measured": m,
				"points_skipped":  sk,
				"rounds":          sw.rounds.Load(),
			}
		}
	}
	return entries, q, sim, sweep, err
}

// qualitySummary condenses the measurements of one attempt for the
// quality gate.
type qualitySummary struct {
	// Measurements is how many BenchLoop measurements the attempt
	// recorded (0 means the experiment took none — the gate abstains).
	Measurements int
	// Samples is the total number of timed batches across them.
	Samples int
	// WorstSpread is the largest relative spread observed.
	WorstSpread float64
	// Outliers counts samples beyond median + 3*MAD (MAD floored at
	// 1% of the median so a lone spike over identical samples still
	// registers); such spikes are the scheduling noise min-of-N
	// reporting absorbs, counted here so reports can see them.
	Outliers int
	// Degenerate counts measurements whose relative spread is undefined
	// because the fastest sample was zero or denormal while others were
	// not (stats.ErrZeroMedian). Such a measurement is at least as
	// suspect as a noisy one — the spread it hides may be unbounded —
	// so the gate re-measures rather than silently accepting it.
	Degenerate int
}

// summarizeQuality computes the gate statistics from an attempt's
// recorded measurements.
func summarizeQuality(rec *timing.Recorder) qualitySummary {
	var q qualitySummary
	for _, m := range rec.Measurements() {
		if len(m.Samples) == 0 {
			continue
		}
		q.Measurements++
		q.Samples += len(m.Samples)
		xs := make([]float64, len(m.Samples))
		for i, s := range m.Samples {
			xs[i] = float64(s)
		}
		if spread, err := stats.RelSpread(xs); err == nil {
			if spread > q.WorstSpread {
				q.WorstSpread = spread
			}
		} else if errors.Is(err, stats.ErrZeroMedian) {
			q.Degenerate++
		}
		med, err := stats.Median(xs)
		if err != nil {
			continue
		}
		mad, _ := stats.MAD(xs)
		if floor := 0.01 * med; mad < floor {
			mad = floor
		}
		for _, x := range xs {
			if x > med+3*mad {
				q.Outliers++
			}
		}
	}
	return q
}

// stampQuality annotates accepted entries with the attempt's sample
// statistics; flagged marks results the gate could not calm within its
// re-measurement budget.
func stampQuality(entries []results.Entry, q qualitySummary, flagged bool) {
	for i := range entries {
		if entries[i].Attrs == nil {
			entries[i].Attrs = make(map[string]string, 4)
		}
		entries[i].Attrs["quality.samples"] = strconv.Itoa(q.Samples)
		entries[i].Attrs["quality.spread"] = strconv.FormatFloat(q.WorstSpread, 'g', -1, 64)
		entries[i].Attrs["quality.outliers"] = strconv.Itoa(q.Outliers)
		if q.Degenerate > 0 {
			entries[i].Attrs["quality.degenerate"] = strconv.Itoa(q.Degenerate)
		}
		if flagged {
			entries[i].Attrs["quality.flagged"] = "true"
		}
	}
}
