package lmbench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/calibrate"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/machines"
	"repro/internal/paper"
	istore "repro/internal/store"
	"repro/internal/unitcache"
)

// Bench is a configured benchmark run, assembled by New from Options.
// The zero configuration is not runnable — at least one machine is
// required — but every other knob has the paper's default.
type Bench struct {
	machines       []Machine
	opts           Options
	sinks          core.MultiSink
	only           []string
	extended       bool
	parallel       int
	timeout        time.Duration
	retries        int
	retryBackoff   time.Duration
	maxRSD         float64
	qualityRetries int
	journalPath    string
	fleetConnect   []string
	storeDir       string
	publishAddr    string
	publishRetries int
	runLabel       string
	sweepMode      SweepMode
	cacheDir       string
	cacheReadOnly  bool
	cacheMaxBytes  int64
	cacheObs       CacheObserver
	catalog        *machines.Catalog
	calibTarget    *calibrate.Target
	calibOpts      calibrate.Options
	optsSet        bool
	errs           []error
}

// Option configures a Bench; see the With* constructors.
type Option func(*Bench)

// New assembles a benchmark run from options:
//
//	rep, err := lmbench.New(
//		lmbench.WithMachine(m),
//		lmbench.WithOptions(lmbench.Options{}),
//		lmbench.WithSink(lmbench.NewTextSink(os.Stderr)),
//	).Run(ctx)
//
// Add WithMachine repeatedly to benchmark several machines into one
// database, WithParallel(n) to run them concurrently, WithJournal(path)
// to make the run resumable, and WithFleetConnect to execute across
// remote worker daemons.
func New(options ...Option) *Bench {
	b := &Bench{}
	for _, o := range options {
		o(b)
	}
	return b
}

// WithMachine adds one benchmark target. Repeat to run several
// machines; results merge in the order given.
func WithMachine(m Machine) Option {
	return func(b *Bench) { b.machines = append(b.machines, m) }
}

// WithOptions sets harness settings and workload sizes (the zero
// value selects the paper's defaults).
func WithOptions(o Options) Option {
	return func(b *Bench) { b.opts, b.optsSet = o, true }
}

// WithSink adds one event sink. Repeat to fan the stream out; every
// sink sees every event.
func WithSink(s EventSink) Option {
	return func(b *Bench) {
		if s != nil {
			b.sinks = append(b.sinks, s)
		}
	}
}

// WithOnly restricts the run to these experiment IDs.
func WithOnly(ids ...string) Option {
	return func(b *Bench) { b.only = append(b.only, ids...) }
}

// WithExtended adds the §7 future-work experiments; see Extensions.
func WithExtended() Option {
	return func(b *Bench) { b.extended = true }
}

// WithParallel sets the in-process worker-pool size for multi-machine
// runs (simulated machines run concurrently; wall-clock machines stay
// serialized). It is the one local executor; ignored under
// WithFleetConnect, where the daemons execute the units.
func WithParallel(n int) Option {
	return func(b *Bench) { b.parallel = n }
}

// WithTimeout bounds each experiment attempt.
func WithTimeout(d time.Duration) Option {
	return func(b *Bench) { b.timeout = d }
}

// WithRetries re-runs a failed experiment up to n times with doubling
// backoff before giving up; WithRetryBackoff overrides the initial
// delay (default 100ms).
func WithRetries(n int) Option {
	return func(b *Bench) { b.retries = n }
}

// WithRetryBackoff sets the initial retry delay; see WithRetries.
func WithRetryBackoff(d time.Duration) Option {
	return func(b *Bench) { b.retryBackoff = d }
}

// WithMaxRSD enables the measurement quality gate: results whose
// relative standard deviation exceeds frac are re-measured up to
// retries times (0 keeps the best attempt anyway).
func WithMaxRSD(frac float64, retries int) Option {
	return func(b *Bench) { b.maxRSD, b.qualityRetries = frac, retries }
}

// WithJournal makes the run crash-safe and resumable through the file
// at path: every completed experiment appends one record, synced as
// written. If the file already holds records from an interrupted run,
// they are replayed instead of re-executed (a torn final record is
// truncated), and the run keeps journaling to the same file — so a
// resumed run that crashes again is itself resumable. Serial,
// parallel and fleet runs write the identical format and can resume
// one another's journals. Records carry no options fingerprint and
// only the sweep mode is checked on replay, so resume a journal with
// the options of the run that wrote it: a full-size run resumed from
// a WithOptions-shrunk journal replays the shrunk entries silently.
func WithJournal(path string) Option {
	return func(b *Bench) { b.journalPath = path }
}

// WithFleetConnect executes the run across remote worker daemons
// (processes running `lmbench -fleet-listen addr`), one connection per
// address; repeat or pass several addresses to grow the pool. Fleet
// runs support simulated machines only (daemons rebuild them from
// their profiles) and produce a database byte-identical to the serial
// run.
func WithFleetConnect(addrs ...string) Option {
	return func(b *Bench) { b.fleetConnect = append(b.fleetConnect, addrs...) }
}

// WithStore publishes the finished run into the results store rooted
// at dir (created if needed). The run is keyed by its content — see
// Report.RunID — so re-running an identical deterministic benchmark
// is an idempotent no-op on the store.
func WithStore(dir string) Option {
	return func(b *Bench) { b.storeDir = dir }
}

// WithPublish streams the finished run to a results-store daemon at
// addr (a process running `lmbench -store-listen`), over the same
// record framing the fleet protocol uses.
func WithPublish(addr string) Option {
	return func(b *Bench) { b.publishAddr = addr }
}

// WithPublishRetries caps how many times a failed publish is retried
// with doubling backoff (0 = the default of 4, negative disables).
// Retrying is always safe: runs are content-addressed, so a publish
// that half-landed before the connection died is finished idempotently
// by the next attempt.
func WithPublishRetries(n int) Option {
	return func(b *Bench) { b.publishRetries = n }
}

// WithUnitCache enables incremental evaluation through the unit cache
// rooted at dir (created if needed): every completed work unit's
// result fragment is persisted under a key derived from the machine
// profile, experiment group, options fingerprint and code version, and
// later runs with the same key reuse the fragment instead of
// re-executing — the database comes out byte-identical either way.
// With WithJournal too, a unit the journal holds replays from the
// journal and never from the cache.
func WithUnitCache(dir string) Option {
	return func(b *Bench) { b.cacheDir = dir }
}

// WithUnitCacheReadOnly makes the cache lookup-only: hits are served
// but misses are not stored and nothing on disk is touched. Useful for
// shared or CI-seeded caches.
func WithUnitCacheReadOnly() Option {
	return func(b *Bench) { b.cacheReadOnly = true }
}

// WithUnitCacheLimit caps the cache directory at maxBytes; after each
// store the least-recently-used fragments are evicted until the cache
// fits (0 = unlimited).
func WithUnitCacheLimit(maxBytes int64) Option {
	return func(b *Bench) { b.cacheMaxBytes = maxBytes }
}

// WithUnitCacheObserver attaches an observer to the unit cache
// (obs.CacheMetrics satisfies it); nil is ignored.
func WithUnitCacheObserver(o CacheObserver) Option {
	return func(b *Bench) { b.cacheObs = o }
}

// WithSweepMode selects how point sweeps cover their grids:
// SweepExhaustive (the default) measures every point; SweepAdaptive
// runs the variance-aware planner, measuring a coarse pass plus
// refinement around detected plateau transitions and interpolating
// the rest. The mode rides the options fingerprint, so it composes
// with WithOptions in either order and the two modes never share run
// IDs or unit-cache keys.
func WithSweepMode(mode SweepMode) Option {
	return func(b *Bench) { b.sweepMode = mode }
}

// WithProfileFile extends the run's machine catalog with profiles
// loaded from path — one canonical profile JSON file, or a directory
// of them. Repeat for several paths; later loads shadow earlier names.
// The catalog is what resolves machine names everywhere the run needs
// one: fleet unit dispatch (non-built-in profiles ship inline on the
// unit frame) and unit-cache keys (a profile's fingerprint keys its
// fragments). Load failures surface from Run.
func WithProfileFile(path string) Option {
	return func(b *Bench) {
		if b.catalog == nil {
			b.catalog = machines.Default()
		}
		if err := b.catalog.LoadPath(path); err != nil {
			b.errs = append(b.errs, err)
		}
	}
}

// WithCatalog replaces the run's machine catalog wholesale; see
// WithProfileFile for what the catalog resolves. A nil catalog means
// the shipped default.
func WithCatalog(cat *Catalog) Option {
	return func(b *Bench) { b.catalog = cat }
}

// WithCalibrateTarget turns the run into a calibration: instead of
// benchmarking, Run fits the single configured simulated machine's
// profile until the suite reproduces the target's measurements, and
// returns the fitted profile in Report.Calibration (the Report's DB is
// the fit's final verification run). Requires exactly one WithMachine,
// and it must be a simulated machine. WithOptions sets the candidate
// runs' suite options, WithMaxRSD their quality gate, WithUnitCache
// the per-candidate cache, and sinks see the calibration event stream.
func WithCalibrateTarget(t CalibrationTarget) Option {
	return func(b *Bench) { b.calibTarget = &t }
}

// WithCalibrateOptions overrides the fitter's own knobs — tolerance,
// evaluation budget, per-parameter concurrency. Zero fields keep
// their defaults, and run-level settings (WithOptions, WithMaxRSD,
// WithUnitCache, sinks) still apply where the corresponding
// CalibrationOptions field is unset.
func WithCalibrateOptions(o CalibrationOptions) Option {
	return func(b *Bench) { b.calibOpts = o }
}

// WithRunLabel tags the run with a human-readable label
// ("nightly-2026-08-08"). Labels are descriptive, not part of the run
// key, and stored runs can be queried by them.
func WithRunLabel(label string) Option {
	return func(b *Bench) { b.runLabel = label }
}

// Report is the outcome of a Bench run: the merged results database
// and, per machine, the experiments its backend could not support.
type Report struct {
	DB *DB
	// Skipped maps machine name to skipped experiment IDs.
	Skipped map[string][]string
	// RunID is the content-addressed key the run stores and publishes
	// under: the hash of (machines, options fingerprint, code version,
	// content hash of DB). Two identical deterministic runs share it.
	RunID string
	// Cache holds the unit-cache traffic counters when WithUnitCache
	// was configured; nil otherwise. A fully-warm run shows
	// Misses == 0.
	Cache *CacheStats
	// Calibration holds the fitted profile and per-parameter trace
	// when the run was a WithCalibrateTarget calibration; nil on
	// normal benchmark runs.
	Calibration *CalibrationResult

	manifest istore.Manifest
}

// Render writes every populated table and figure in the paper's
// presentation format.
func (r *Report) Render(w io.Writer) error { return paper.RenderAll(w, r.DB) }

// RenderTable writes one table ("table2" ... "table17").
func (r *Report) RenderTable(w io.Writer, id string) error {
	return paper.RenderTable(w, id, r.DB)
}

// Publish stores the run in s and returns the stored manifest. It is
// the programmatic form of WithStore, for callers that decide after
// seeing the report; publishing the same run twice is idempotent.
func (r *Report) Publish(ctx context.Context, s *Store) (Manifest, error) {
	if err := ctx.Err(); err != nil {
		return Manifest{}, err
	}
	return s.Put(r.manifest, r.DB)
}

// Run executes the configured benchmark and returns its Report. The
// context cancels or deadlines the run between measurement batches.
func (b *Bench) Run(ctx context.Context) (*Report, error) {
	if len(b.errs) > 0 {
		return nil, errors.Join(b.errs...)
	}
	if len(b.machines) == 0 {
		return nil, errors.New("lmbench: no machines configured (use WithMachine)")
	}
	// Fold the sweep mode into the options before anything derives
	// state from them (unit-cache keys, the fleet/runner config, the
	// manifest fingerprint), so WithSweepMode works regardless of its
	// ordering relative to WithOptions.
	if b.sweepMode != "" {
		b.opts.SweepMode = b.sweepMode
	}
	if b.calibTarget != nil {
		return b.runCalibration(ctx)
	}
	only, err := core.OnlySet(b.only)
	if err != nil {
		return nil, fmt.Errorf("lmbench: %w", err)
	}
	var journal *core.Journal
	if b.journalPath != "" {
		if journal, err = core.OpenJournal(b.journalPath); err != nil {
			return nil, err
		}
		// Every record is synced as written, so Close loses nothing.
		defer func() { _ = journal.Close() }()
	}

	db := &DB{}
	var events EventSink
	if len(b.sinks) > 0 {
		events = b.sinks
	}

	var cache *unitcache.Cache
	if b.cacheDir != "" {
		cfg := unitcache.Config{
			ReadOnly: b.cacheReadOnly,
			MaxBytes: b.cacheMaxBytes,
			MaxRSD:   b.maxRSD, QualityRetries: b.qualityRetries,
			Obs: b.cacheObs,
		}
		if cat := b.catalog; cat != nil {
			cfg.Resolve = cat.ByName
		}
		cache, err = unitcache.Open(b.cacheDir, b.opts, cfg)
		if err != nil {
			return nil, err
		}
	}

	var skipped map[string][]string
	if len(b.fleetConnect) > 0 {
		names, err := fleet.MachineNamesIn(b.catalog, b.machines)
		if err != nil {
			return nil, err
		}
		coord := &fleet.Coordinator{
			Machines: names,
			Catalog:  b.catalog,
			Opts:     b.opts,
			Only:     only,
			Extended: b.extended,
			Events:   events,
			Connect:  b.fleetConnect,
			Timeout:  b.timeout, Retries: b.retries, RetryBackoff: b.retryBackoff,
			MaxRSD: b.maxRSD, QualityRetries: b.qualityRetries,
			Journal: journal,
		}
		if cache != nil {
			// Guarded assignment: a nil *unitcache.Cache in the
			// interface field would be non-nil to == checks.
			coord.Cache = cache
		}
		skipped, err = coord.Run(ctx, db)
		if err != nil {
			return nil, err
		}
	} else {
		runner := &core.Runner{
			Machines: b.machines,
			Opts:     b.opts,
			Parallel: b.parallel,
			Events:   events,
			Only:     only,
			Extended: b.extended,
			Timeout:  b.timeout, Retries: b.retries, RetryBackoff: b.retryBackoff,
			MaxRSD: b.maxRSD, QualityRetries: b.qualityRetries,
			Journal: journal,
		}
		if cache != nil {
			runner.Cache = cache
		}
		skipped, err = runner.Run(ctx, db)
		if err != nil {
			return nil, err
		}
	}
	rep := &Report{DB: db, Skipped: skipped}
	if cache != nil {
		st := cache.Stats()
		rep.Cache = &st
	}
	if err := rep.fillManifest(b); err != nil {
		return nil, err
	}
	if b.storeDir != "" {
		s, err := istore.Open(b.storeDir)
		if err != nil {
			return nil, err
		}
		m, err := s.Put(rep.manifest, db)
		if err != nil {
			return nil, err
		}
		rep.RunID = m.RunID
	}
	if b.publishAddr != "" {
		m, err := istore.PublishWith(ctx, b.publishAddr, rep.manifest, db,
			istore.PublishOptions{Retries: b.publishRetries})
		if err != nil {
			return nil, fmt.Errorf("lmbench: publish to %s: %w", b.publishAddr, err)
		}
		rep.RunID = m.RunID
	}
	return rep, nil
}

// runCalibration is Run's WithCalibrateTarget branch: fit the single
// configured simulated machine's profile to the target and report the
// verification run as the database.
func (b *Bench) runCalibration(ctx context.Context) (*Report, error) {
	if len(b.machines) != 1 {
		return nil, errors.New("lmbench: calibration takes exactly one machine (the base profile)")
	}
	type profiled interface{ Profile() machines.Profile }
	pm, ok := b.machines[0].(profiled)
	if !ok {
		return nil, fmt.Errorf("lmbench: calibration requires a simulated machine; %q carries no profile", b.machines[0].Name())
	}
	opts := b.calibOpts
	if opts.Run == nil && b.optsSet {
		runOpts := b.opts
		opts.Run = &runOpts
	}
	if opts.MaxRSD == 0 {
		opts.MaxRSD = b.maxRSD
	}
	if opts.Events == nil && len(b.sinks) > 0 {
		opts.Events = b.sinks
	}
	if opts.CacheDir == "" {
		opts.CacheDir = b.cacheDir
	}
	res, err := calibrate.Calibrate(ctx, pm.Profile(), *b.calibTarget, opts)
	if err != nil {
		return nil, err
	}
	rep := &Report{DB: res.DB, Skipped: map[string][]string{}, Calibration: res}
	if err := rep.fillManifest(b); err != nil {
		return nil, err
	}
	return rep, nil
}

// fillManifest derives the run's store manifest — and from it the
// report's RunID — from what was just run: the machine names in run
// order, the normalized-options fingerprint, and the code version.
func (r *Report) fillManifest(b *Bench) error {
	names := make([]string, len(b.machines))
	for i, m := range b.machines {
		names[i] = m.Name()
	}
	fp, err := istore.Fingerprint(b.opts)
	if err != nil {
		return err
	}
	r.manifest = istore.Manifest{
		Label:       b.runLabel,
		Machines:    names,
		Options:     fp,
		CodeVersion: istore.CodeVersion(),
	}
	hash, err := istore.ContentHash(r.DB)
	if err != nil {
		return err
	}
	r.manifest.ContentHash = hash
	r.manifest.Entries = r.DB.Len()
	r.RunID = istore.RunIDFor(r.manifest)
	return nil
}
