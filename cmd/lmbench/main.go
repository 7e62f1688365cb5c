// Command lmbench runs the benchmark suite on the host or on one of
// the built-in simulated 1995 machines, prints the paper-style tables,
// and optionally saves the results database.
//
// Usage:
//
//	lmbench -list                     # available machines and experiments
//	lmbench -list-machines            # the full machine catalog with provenance
//	lmbench -machine host             # run on this machine
//	lmbench -machine 'Linux/i686'     # run on a simulated machine
//	lmbench -machine all-sim          # run on every compiled-in simulated machine
//	lmbench -profile m.json           # add profile file (or dir) to the catalog
//	lmbench -dump-profile 'Linux/i586'
//	                                 # print a profile's canonical JSON
//	lmbench -calibrate -machine 'Linux/i686' -target paper -emit fitted.json
//	                                 # fit the profile to target measurements
//	                                 # (-target paper | run:<ref> | results-db file)
//	lmbench -only table2,table7      # restrict the experiments
//	lmbench -parallel 4              # run simulated machines concurrently
//	lmbench -trace run.jsonl         # structured JSON-lines event trace
//	lmbench -spans run.spans.jsonl   # span trace (flamegraph-convertible)
//	lmbench -serve 127.0.0.1:9090    # live /metrics, /progress, /healthz
//	lmbench -out results.db          # save the database
//	lmbench -merge old.db ...        # preload databases before running
//	lmbench -journal run.jnl         # crash-safe journal of completed work
//	                                 # (starts the file afresh)
//	lmbench -resume run.jnl          # replay a journal, run the remainder,
//	                                 # keep journaling; pass the flags of the
//	                                 # run that wrote it (only -sweep is checked)
//	lmbench -chaos 'err=0.3,seed=1'  # inject faults (testing the harness)
//	lmbench -sweep adaptive          # variance-aware sweep planning: measure
//	                                 # transitions, interpolate plateaus
//	lmbench -unit-cache cache/       # reuse cached unit results (warm runs
//	                                 # skip execution, byte-identical output)
//	lmbench -unit-cache-readonly     # serve cache hits, never write
//	lmbench -unit-cache-max-bytes N  # LRU-evict the cache down to N bytes
//	lmbench -max-rsd 0.05            # re-measure experiments noisier than 5%
//	lmbench -fleet-listen :7777      # serve as a remote worker daemon
//	lmbench -fleet-connect host:7777 # run across remote worker daemons
//	                                 # (repeatable; byte-identical output)
//	lmbench -store store/            # persist the run in a results store
//	lmbench -publish host:7878       # stream the run to a store daemon
//	lmbench -run-label nightly       # label the stored run
//	lmbench -store-listen :7878 -store-dir store/ -store-http :8080
//	                                 # run as the results-store daemon
//	lmbench -store-scrub -store-dir store/
//	                                 # verify the store: re-hash objects,
//	                                 # quarantine corruption, sweep partials
//	lmbench -chaos-net 'seed=1,drop=0.1' -chaos-listen :7879 -chaos-target host:7878
//	                                 # run a deterministic lossy proxy
//
// The daemon modes (-fleet-listen, -store-listen) drain gracefully on
// SIGINT/SIGTERM: the listener closes immediately, in-flight work
// finishes, then the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	lmbench "repro"
	"repro/internal/calibrate"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/host"
	"repro/internal/machines"
	"repro/internal/netfaults"
	"repro/internal/paper"
	"repro/internal/ptime"
	"repro/internal/results"
	"repro/internal/store"
	"repro/internal/timing"
)

func main() {
	lmbench.MaybeChild()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lmbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		machineFlag = flag.String("machine", "host", "target: host, all-sim, or a simulated machine name")
		onlyFlag    = flag.String("only", "", "comma-separated experiment ids (default all)")
		outFlag     = flag.String("out", "", "write the results database to this file")
		listFlag    = flag.Bool("list", false, "list machines and experiments, then exit")
		fastFlag    = flag.Bool("fast", false, "shrink workloads for a quick pass")
		quietFlag   = flag.Bool("quiet", false, "suppress progress output")
		extFlag     = flag.Bool("extensions", false, "include the paper's section-7 future-work experiments")
		summaryFlag = flag.Bool("summary", false, "print per-machine summary blocks instead of the paper tables")
		parFlag     = flag.Int("parallel", 1, "machines run at once (simulated machines only; host runs are serialized)")
		traceFlag   = flag.String("trace", "", "write a JSON-lines event trace to this file")
		spansFlag   = flag.String("spans", "", "write a JSON-lines span trace (flamegraph-convertible) to this file")
		serveFlag   = flag.String("serve", "", "serve /metrics, /progress and /healthz on this address for the run's duration")
		timeoutFlag = flag.Duration("timeout", 0, "per-experiment attempt deadline (0 = none)")
		retryFlag   = flag.Int("retries", 0, "extra attempts for a failing experiment")
		journalFlag = flag.String("journal", "", "append completed experiments to this crash-safe journal")
		resumeFlag  = flag.String("resume", "", "replay completed work from this journal, run the rest, keep journaling")
		chaosFlag   = flag.String("chaos", "", "fault-injection plan, e.g. 'seed=1,err=0.3,stall=0.05' (see internal/faults)")
		rsdFlag     = flag.Float64("max-rsd", 0, "re-measure experiments whose relative sample spread exceeds this (0 = off)")
		qretryFlag  = flag.Int("quality-retries", 0, "re-measurements for a noisy experiment (default 2 when -max-rsd is set)")
		shardsFlag  = flag.Int("shards", 1, "workers for independent-point sweeps on cloneable (simulated) machines; results are byte-identical at any value")
		sweepFlag   = flag.String("sweep", "exhaustive", "sweep coverage: exhaustive (every grid point, byte-stable) or adaptive (measure transitions, interpolate plateaus)")
		cpuProfile  = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile  = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
		listenFlag  = flag.String("fleet-listen", "", "serve as a remote fleet worker daemon on this address")

		storeFlag       = flag.String("store", "", "persist the finished run in the results store at this directory")
		publishFlag     = flag.String("publish", "", "stream the finished run to a results-store daemon at this address")
		runLabelFlag    = flag.String("run-label", "", "label the stored run (with -store or -publish)")
		storeListenFlag = flag.String("store-listen", "", "run as a results-store daemon: accept published runs on this address")
		storeDirFlag    = flag.String("store-dir", "lmbench-store", "store directory for -store-listen and -store-scrub")
		storeHTTPFlag   = flag.String("store-http", "", "with -store-listen, also serve the store query API on this address")
		storeScrubFlag  = flag.Bool("store-scrub", false, "verify the store at -store-dir (re-hash objects, quarantine corruption, sweep partial writes), report, exit")
		pubRetriesFlag  = flag.Int("publish-retries", 0, "retries for a failed -publish, with doubling backoff (0 = default of 4, negative disables)")

		cacheFlag    = flag.String("unit-cache", "", "reuse completed work units from this cache directory; misses are stored for the next run")
		cacheROFlag  = flag.Bool("unit-cache-readonly", false, "with -unit-cache, serve hits but never write to the cache")
		cacheMaxFlag = flag.Int64("unit-cache-max-bytes", 0, "with -unit-cache, evict least-recently-used fragments beyond this size (0 = unlimited)")

		chaosNetFlag    = flag.String("chaos-net", "", "run as a deterministic lossy proxy with this fault plan, e.g. 'seed=1,drop=0.1,trunc=0.05' (see internal/netfaults)")
		chaosListenFlag = flag.String("chaos-listen", "127.0.0.1:0", "listen address for -chaos-net")
		chaosTargetFlag = flag.String("chaos-target", "", "forward address for -chaos-net")

		listMachFlag  = flag.Bool("list-machines", false, "list the machine catalog (name, CPU, OS, geometry, provenance), then exit")
		dumpProfFlag  = flag.String("dump-profile", "", "print a catalog profile's canonical JSON to stdout, then exit")
		calibrateFlag = flag.Bool("calibrate", false, "fit -machine's profile to -target measurements instead of benchmarking")
		targetFlag    = flag.String("target", "", "calibration target: 'paper', 'run:<ref>' (with -store), or a results-db file")
		emitFlag      = flag.String("emit", "", "with -calibrate, write the fitted profile to this file (default stdout)")
	)
	var merges, fleetConnect, profilePaths multiFlag
	flag.Var(&merges, "merge", "preload a results database (repeatable)")
	flag.Var(&fleetConnect, "fleet-connect", "run across the remote worker daemon at this address (repeatable; simulated machines only; results are byte-identical)")
	flag.Var(&profilePaths, "profile", "load machine profiles from this JSON file or directory into the catalog (repeatable; later loads shadow earlier names)")
	flag.Parse()

	// The catalog backs every machine-name resolution below: -machine,
	// -dump-profile, -calibrate, fleet dispatch, unit-cache keys and
	// the store daemon's /api/machines.
	catalog := machines.Default()
	for _, path := range profilePaths {
		if err := catalog.LoadPath(path); err != nil {
			return fmt.Errorf("-profile: %w", err)
		}
	}

	if *listenFlag != "" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		ln, err := net.Listen("tcp", *listenFlag)
		if err != nil {
			return fmt.Errorf("-fleet-listen: %w", err)
		}
		if !*quietFlag {
			fmt.Fprintf(os.Stderr, "fleet worker daemon on %s\n", ln.Addr())
		}
		return fleet.Serve(ctx, ln)
	}
	if *storeScrubFlag {
		return scrubStore(*storeDirFlag)
	}
	if *storeListenFlag != "" {
		return serveStore(*storeListenFlag, *storeDirFlag, *storeHTTPFlag, catalog, *quietFlag)
	}
	if *chaosNetFlag != "" {
		return serveChaosProxy(*chaosNetFlag, *chaosListenFlag, *chaosTargetFlag, *quietFlag)
	}
	fleetMode := len(fleetConnect) > 0

	if *listMachFlag {
		return machines.RenderList(os.Stdout, catalog)
	}
	if *dumpProfFlag != "" {
		p, ok := catalog.ByName(*dumpProfFlag)
		if !ok {
			return fmt.Errorf("unknown machine %q (try -list-machines)", *dumpProfFlag)
		}
		b, err := machines.EncodeProfile(p)
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(b)
		return err
	}

	if *listFlag {
		fmt.Println("simulated machines:")
		for _, n := range machines.Names() {
			p, _ := machines.ByName(n)
			fmt.Printf("  %-16s %s, %s @%gMHz (%d)\n", n, p.OSName, p.CPUName, p.MHz, p.Year)
		}
		fmt.Println("experiments:")
		for _, e := range core.Experiments() {
			fmt.Printf("  %-8s %s\n", e.ID, e.Title)
		}
		fmt.Println("extensions (with -extensions):")
		for _, e := range core.Extensions() {
			fmt.Printf("  %-10s %s\n", e.ID, e.Title)
		}
		return nil
	}

	if *calibrateFlag {
		return runCalibrate(catalog, *machineFlag, *targetFlag, *emitFlag,
			*storeFlag, *cacheFlag, *rsdFlag, *quietFlag)
	}

	db := &results.DB{}
	for _, path := range merges {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		loaded, err := results.Decode(f)
		_ = f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		db.Merge(loaded)
	}

	var onlyIDs []string
	if *onlyFlag != "" {
		for _, id := range strings.Split(*onlyFlag, ",") {
			onlyIDs = append(onlyIDs, strings.TrimSpace(id))
		}
	}
	only, err := core.OnlySet(onlyIDs)
	if err != nil {
		return err
	}

	var targets []core.Machine
	switch *machineFlag {
	case "host":
		hm, err := host.New()
		if err != nil {
			return err
		}
		defer func() { _ = hm.Close() }()
		targets = append(targets, hm)
	case "all-sim":
		for _, n := range machines.Names() {
			p, _ := machines.ByName(n)
			m, err := machines.Build(p)
			if err != nil {
				return err
			}
			targets = append(targets, m)
		}
	default:
		p, ok := catalog.ByName(*machineFlag)
		if !ok {
			return fmt.Errorf("unknown machine %q (try -list-machines)", *machineFlag)
		}
		m, err := machines.Build(p)
		if err != nil {
			return err
		}
		targets = append(targets, m)
	}

	sweepMode := core.SweepMode(*sweepFlag)
	switch sweepMode {
	case "", core.SweepExhaustive, core.SweepAdaptive:
	default:
		return fmt.Errorf("-sweep: unknown mode %q (want exhaustive or adaptive)", *sweepFlag)
	}

	var chaotic []*faults.Machine
	if *chaosFlag != "" && fleetMode {
		return fmt.Errorf("-chaos does not compose with fleet execution: fault wrappers cannot cross a process boundary")
	}
	if *chaosFlag != "" && *cacheFlag != "" {
		return fmt.Errorf("-chaos does not compose with -unit-cache: fault-perturbed results must never seed the cache")
	}
	if *chaosFlag != "" && sweepMode == core.SweepAdaptive {
		return fmt.Errorf("-chaos does not compose with -sweep adaptive: injected noise would steer the planner's transition detection")
	}
	if *chaosFlag != "" {
		plan, err := faults.ParsePlan(*chaosFlag)
		if err != nil {
			return err
		}
		for i, m := range targets {
			// Distinct per-machine seeds keep parallel runs deterministic
			// while machines see independent fault streams.
			p := plan
			p.Seed += int64(i)
			f := faults.Wrap(m, p)
			chaotic = append(chaotic, f)
			targets[i] = f
		}
	}

	opts := core.Options{}
	if *fastFlag {
		opts = core.Options{
			Timing:       timing.Options{MinSampleTime: ptime.Millisecond, Samples: 3},
			MemSize:      2 << 20,
			FileSize:     2 << 20,
			MaxChaseSize: 2 << 20,
			FSFiles:      200,
			CtxProcs:     []int{2, 8, 16},
			CtxSizes:     []int64{0, 16 << 10, 32 << 10},
		}
	}
	opts.SweepShards = *shardsFlag
	opts.SweepMode = sweepMode

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer func() { _ = f.Close() }()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		defer func() {
			runtime.GC() // materialize final live-heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "lmbench: memprofile:", err)
			}
			_ = f.Close()
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var sinks core.MultiSink
	if !*quietFlag {
		if (*parFlag > 1 || fleetMode) && len(targets) > 1 {
			sinks = append(sinks, lmbench.NewPrefixedTextSink(os.Stderr))
		} else {
			sinks = append(sinks, lmbench.NewTextSink(os.Stderr))
		}
	}
	if *traceFlag != "" {
		tf, err := os.Create(*traceFlag)
		if err != nil {
			return err
		}
		defer func() { _ = tf.Close() }()
		sinks = append(sinks, lmbench.NewJSONLSink(tf))
	}
	if *spansFlag != "" {
		sf, err := os.Create(*spansFlag)
		if err != nil {
			return err
		}
		tr := lmbench.NewTraceSink(sf).WithSamples()
		defer func() {
			_ = tr.Close() // emit the root suite span
			_ = sf.Close()
		}()
		sinks = append(sinks, tr)
	}

	// -journal starts its file afresh; -resume replays the file's
	// records and keeps journaling to it, so a resumed run that crashes
	// again is itself resumable. The journal stays open for the process
	// lifetime; each record is synced as it is written.
	var journal *core.Journal
	journalPath := *resumeFlag
	if *journalFlag != "" {
		if *resumeFlag != "" {
			return fmt.Errorf("-journal and -resume are mutually exclusive (resume keeps journaling to the same file)")
		}
		if err := os.WriteFile(*journalFlag, nil, 0o644); err != nil {
			return err
		}
		journalPath = *journalFlag
	}
	if journalPath != "" {
		if journal, err = core.OpenJournal(journalPath); err != nil {
			return err
		}
	}

	var fleetObs *lmbench.FleetMetrics
	var cacheObs lmbench.CacheObserver
	if *serveFlag != "" {
		registry := lmbench.NewRegistry()
		progress := lmbench.NewProgress()
		for _, m := range targets {
			progress.SetPlan(m.Name(), planSize(only, *extFlag))
		}
		sinks = append(sinks, lmbench.NewMetricsSink(registry), progress)
		lmbench.RegisterHarness(registry)
		if sweepMode == core.SweepAdaptive {
			lmbench.RegisterSweepPlanner(registry)
		}
		if *publishFlag != "" {
			lmbench.RegisterPublishRetries(registry)
		}
		if journal != nil {
			lmbench.RegisterJournal(registry, journal)
		}
		if fleetMode {
			fleetObs = lmbench.NewFleetMetrics(registry)
		}
		if *cacheFlag != "" {
			cacheObs = lmbench.NewCacheMetrics(registry)
		}
		if len(chaotic) > 0 {
			injected := chaotic
			lmbench.RegisterFaults(registry, func() (calls, errors, stalls, spikes int64) {
				for _, f := range injected {
					st := f.Stats()
					calls += int64(st.Calls)
					errors += int64(st.Errors)
					stalls += int64(st.Stalls)
					spikes += int64(st.Spikes)
				}
				return
			})
		}
		srv := &lmbench.Server{Registry: registry, Progress: progress}
		addr, stopServe, err := srv.Start(ctx, *serveFlag)
		if err != nil {
			return fmt.Errorf("-serve: %w", err)
		}
		defer stopServe()
		if !*quietFlag {
			fmt.Fprintf(os.Stderr, "observability: http://%s/metrics /progress /healthz\n", addr)
		}
	}

	var sink core.EventSink
	if len(sinks) > 0 {
		sink = sinks
	}

	var cache *lmbench.UnitCache
	if *cacheFlag != "" {
		cache, err = lmbench.OpenUnitCache(*cacheFlag, opts, lmbench.UnitCacheConfig{
			ReadOnly: *cacheROFlag,
			MaxBytes: *cacheMaxFlag,
			MaxRSD:   *rsdFlag, QualityRetries: *qretryFlag,
			Obs:     cacheObs,
			Resolve: catalog.ByName,
		})
		if err != nil {
			return fmt.Errorf("-unit-cache: %w", err)
		}
	}

	var skipped map[string][]string
	if fleetMode {
		names, err := fleet.MachineNamesIn(catalog, targets)
		if err != nil {
			return err
		}
		coord := &fleet.Coordinator{
			Machines:       names,
			Catalog:        catalog,
			Opts:           opts,
			Only:           only,
			Extended:       *extFlag,
			Events:         sink,
			Connect:        fleetConnect,
			Timeout:        *timeoutFlag,
			Retries:        *retryFlag,
			MaxRSD:         *rsdFlag,
			QualityRetries: *qretryFlag,
			Journal:        journal,
		}
		if fleetObs != nil {
			coord.Obs = fleetObs
		}
		if cache != nil {
			coord.Cache = cache
		}
		skipped, err = coord.Run(ctx, db)
		if err != nil {
			return err
		}
	} else {
		runner := &core.Runner{
			Machines:       targets,
			Opts:           opts,
			Parallel:       *parFlag,
			Events:         sink,
			Only:           only,
			Extended:       *extFlag,
			Timeout:        *timeoutFlag,
			Retries:        *retryFlag,
			MaxRSD:         *rsdFlag,
			QualityRetries: *qretryFlag,
			Journal:        journal,
		}
		if cache != nil {
			runner.Cache = cache
		}
		skipped, err = runner.Run(ctx, db)
		if err != nil {
			return err
		}
	}
	if len(chaotic) > 0 && !*quietFlag {
		for _, f := range chaotic {
			fmt.Fprintf(os.Stderr, "%s: chaos: %s\n", f.Name(), f.Stats())
		}
	}
	if cache != nil && !*quietFlag {
		fmt.Fprintf(os.Stderr, "unit-cache: %s\n", cache.Stats())
	}
	if sweepMode == core.SweepAdaptive && !*quietFlag {
		measured, skippedPts := core.ReadSweepStats()
		fmt.Fprintf(os.Stderr, "sweep: measured=%d skipped=%d\n", measured, skippedPts)
	}
	if !*quietFlag {
		for _, m := range targets {
			if ids := skipped[m.Name()]; len(ids) > 0 {
				fmt.Fprintf(os.Stderr, "%s: skipped (unsupported): %s\n",
					m.Name(), strings.Join(ids, ", "))
			}
		}
	}

	if *storeFlag != "" || *publishFlag != "" {
		runID, err := publishRun(ctx, db, targets, opts, *runLabelFlag, *storeFlag, *publishFlag, *pubRetriesFlag)
		if err != nil {
			return err
		}
		if !*quietFlag {
			fmt.Fprintf(os.Stderr, "published run %s\n", runID)
		}
	}

	if *summaryFlag {
		for i, m := range targets {
			if i > 0 {
				fmt.Println()
			}
			if err := paper.RenderSummary(os.Stdout, db, m.Name()); err != nil {
				return err
			}
		}
	} else if err := paper.RenderAll(os.Stdout, db); err != nil {
		return err
	}

	if *outFlag != "" {
		f, err := os.Create(*outFlag)
		if err != nil {
			return err
		}
		defer func() { _ = f.Close() }()
		if err := db.Encode(f); err != nil {
			return err
		}
	}
	return nil
}

// serveStore runs the results-store daemon: runs published with
// -publish land in the store at dir, and, when httpAddr is set, the
// query/compare API (run listings, paper tables, comparisons, trends,
// regression reports) is served alongside. The store is scrubbed at
// startup — a daemon that crashed mid-ingest comes back with partial
// writes swept and any corruption quarantined — and SIGINT/SIGTERM
// drain in-flight publishes before the process exits.
func serveStore(listenAddr, dir, httpAddr string, catalog *machines.Catalog, quiet bool) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	s, err := lmbench.OpenStore(dir)
	if err != nil {
		return fmt.Errorf("-store-dir: %w", err)
	}
	rep, err := s.Scrub()
	if err != nil {
		return fmt.Errorf("startup scrub: %w", err)
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "startup scrub: %s\n", rep)
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return fmt.Errorf("-store-listen: %w", err)
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "results store daemon on %s (store %s)\n", ln.Addr(), dir)
	}
	registry := lmbench.NewRegistry()
	if httpAddr != "" {
		srv := &lmbench.StoreServer{Store: s, Registry: registry, Catalog: catalog}
		addr, stopServe, err := srv.Start(ctx, httpAddr)
		if err != nil {
			return fmt.Errorf("-store-http: %w", err)
		}
		defer stopServe()
		if !quiet {
			fmt.Fprintf(os.Stderr, "store api: http://%s/api/runs\n", addr)
		}
	}
	return lmbench.ServeStoreIngestWith(ctx, ln, s, lmbench.IngestOptions{Registry: registry})
}

// runCalibrate is the -calibrate mode: resolve the base profile and
// the target measurements, fit, and emit the fitted profile. The
// convergence trace streams to stderr as fit lines; the fitted profile
// goes to -emit (or stdout) in the canonical encoding -profile reads
// back.
func runCalibrate(catalog *machines.Catalog, machineName, targetSpec, emit, storeDir, cacheDir string, rsd float64, quiet bool) error {
	if machineName == "host" || machineName == "all-sim" {
		return fmt.Errorf("-calibrate fits one simulated profile; set -machine to a catalog machine name")
	}
	base, ok := catalog.ByName(machineName)
	if !ok {
		return fmt.Errorf("unknown machine %q (try -list-machines)", machineName)
	}
	if targetSpec == "" {
		return fmt.Errorf("-calibrate requires -target: 'paper', 'run:<ref>' (with -store), or a results-db file")
	}
	var target calibrate.Target
	var err error
	switch {
	case targetSpec == "paper":
		target, err = calibrate.FromPaper(machineName)
	case strings.HasPrefix(targetSpec, "run:"):
		if storeDir == "" {
			return fmt.Errorf("-target run:<ref> needs -store <dir> to resolve the run")
		}
		s, serr := lmbench.OpenStore(storeDir)
		if serr != nil {
			return serr
		}
		m, serr := s.Resolve(strings.TrimPrefix(targetSpec, "run:"))
		if serr != nil {
			return serr
		}
		var db *results.DB
		if _, db, serr = s.DB(m.RunID); serr != nil {
			return serr
		}
		target, err = calibrate.FromDB(db, machineName)
	default:
		target, err = calibrate.FromFile(targetSpec, machineName)
	}
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	copts := calibrate.Options{MaxRSD: rsd, CacheDir: cacheDir}
	if !quiet {
		copts.Events = core.NewTextSink(os.Stderr)
	}
	res, err := calibrate.Calibrate(ctx, base, target, copts)
	if err != nil {
		return err
	}
	if emit != "" {
		if err := machines.WriteProfileFile(emit, res.Profile); err != nil {
			return err
		}
		if !quiet {
			fmt.Fprintf(os.Stderr, "wrote fitted profile to %s\n", emit)
		}
	} else {
		b, err := machines.EncodeProfile(res.Profile)
		if err != nil {
			return err
		}
		if _, err := os.Stdout.Write(b); err != nil {
			return err
		}
	}
	if !res.Converged {
		n := 0
		for _, pr := range res.Params {
			if pr.Converged {
				n++
			}
		}
		return fmt.Errorf("calibration converged on %d/%d parameters (budget %d evals spent)",
			n, len(res.Params), res.Evals)
	}
	return nil
}

// scrubStore verifies the store at dir on demand and prints what was
// found; corruption is quarantined (never deleted) and partial writes
// swept, so a crashed daemon's directory is safe to serve again.
func scrubStore(dir string) error {
	s, err := lmbench.OpenStore(dir)
	if err != nil {
		return fmt.Errorf("-store-dir: %w", err)
	}
	rep, err := s.Scrub()
	if err != nil {
		return err
	}
	fmt.Println(rep)
	return nil
}

// serveChaosProxy runs the deterministic lossy proxy: record-framed
// traffic relayed to target with seeded frame-level faults, for
// rehearsing daemon failures without touching the daemons themselves.
func serveChaosProxy(planText, listenAddr, target string, quiet bool) error {
	if target == "" {
		return fmt.Errorf("-chaos-net requires -chaos-target")
	}
	plan, err := netfaults.ParsePlan(planText)
	if err != nil {
		return fmt.Errorf("-chaos-net: %w", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	inj := netfaults.New(plan)
	p := &netfaults.Proxy{Inj: inj, Target: target}
	if !quiet {
		p.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "chaos: "+format+"\n", args...)
		}
	}
	err = p.ListenAndServe(ctx, listenAddr, func(addr net.Addr) {
		// The address line is machine-readable on stdout so scripts can
		// point publishers at an ephemeral proxy port.
		fmt.Printf("chaos proxy %s -> %s\n", addr, target)
	})
	if !quiet {
		fmt.Fprintf(os.Stderr, "chaos proxy: %s\n", inj.Stats())
	}
	return err
}

// publishRun lands the finished database in a local store and/or a
// remote daemon, keyed by what was run; see internal/store.
func publishRun(ctx context.Context, db *results.DB, targets []core.Machine, opts core.Options, label, storeDir, publishAddr string, retries int) (string, error) {
	fp, err := store.Fingerprint(opts)
	if err != nil {
		return "", err
	}
	m := store.Manifest{Label: label, Options: fp, CodeVersion: store.CodeVersion()}
	for _, t := range targets {
		m.Machines = append(m.Machines, t.Name())
	}
	var runID string
	if storeDir != "" {
		s, err := lmbench.OpenStore(storeDir)
		if err != nil {
			return "", err
		}
		put, err := s.Put(m, db)
		if err != nil {
			return "", err
		}
		runID = put.RunID
	}
	if publishAddr != "" {
		put, err := store.PublishWith(ctx, publishAddr, m, db, store.PublishOptions{
			Retries: retries,
			OnRetry: func(n int, err error) {
				fmt.Fprintf(os.Stderr, "publish retry %d: %v\n", n, err)
			},
		})
		if err != nil {
			return "", fmt.Errorf("-publish %s: %w", publishAddr, err)
		}
		runID = put.RunID
	}
	return runID, nil
}

// planSize counts the experiment groups one machine will execute — the
// unit the suite emits events for. Experiments sharing a RunKey (e.g.
// Figure 1 and Table 6 come from one sweep) count once, matching how
// the run loop dedups them, so /progress ETAs are denominated in the
// same units the event stream reports.
func planSize(only map[string]bool, extended bool) int {
	exps := core.Experiments()
	if extended {
		exps = append(exps, core.Extensions()...)
	}
	return len(core.GroupExperiments(exps, only))
}

// multiFlag collects repeatable string flags.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }
