// Command lmreport regenerates the paper's entire evaluation: it runs
// the full suite on every built-in simulated machine (the Table-1
// testbed), renders Tables 2-17 and Figures 1-2, and writes the results
// database plus gnuplot data for the figures. It is a thin client of
// the public lmbench API — the run is composed with lmbench.New and
// results can land directly in a results store.
//
//	lmreport                      # all machines, tables to stdout
//	lmreport -out results.db      # also save the database
//	lmreport -gnuplot figures/    # also write figure .dat files
//	lmreport -machines 'Linux/i686,HP K210'
//	lmreport -store store/        # publish the run into a results store
//	lmreport -publish host:7878   # publish to a store daemon
//
// The machines run concurrently, one per available CPU; simulated
// results are byte-identical at any concurrency.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	lmbench "repro"
	"repro/internal/paper"
	"repro/internal/ptime"
	"repro/internal/report"
	"repro/internal/timing"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lmreport:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		outFlag     = flag.String("out", "", "write the results database here")
		gnuplotFlag = flag.String("gnuplot", "", "write figure data files into this directory")
		svgFlag     = flag.String("svg", "", "write rendered SVG figures into this directory")
		machFlag    = flag.String("machines", "", "comma-separated machine subset (default all)")
		fullFlag    = flag.Bool("full", false, "paper-sized workloads (slower)")
		quietFlag   = flag.Bool("quiet", false, "suppress progress output")
		storeFlag   = flag.String("store", "", "publish the finished run into the results store at this directory")
		publishFlag = flag.String("publish", "", "publish the finished run to a store daemon at this address")
		retriesFlag = flag.Int("publish-retries", 0, "retries for a failed -publish, with doubling backoff (0 = default of 4)")
		labelFlag   = flag.String("run-label", "", "label the published run (with -store or -publish)")
	)
	flag.Parse()

	names := lmbench.SimMachineNames()
	if *machFlag != "" {
		names = nil
		for _, n := range strings.Split(*machFlag, ",") {
			names = append(names, strings.TrimSpace(n))
		}
	}

	// The virtual clock is exact, so small samples suffice; -full uses
	// the paper's 8MB sizes, the default trims the sweeps for speed.
	opts := lmbench.Options{
		Timing: timing.Options{MinSampleTime: ptime.Millisecond, Samples: 2},
	}
	if !*fullFlag {
		// Keep the paper's 8MB regions: machines with 4MB board caches
		// (SGI Challenge, DEC 8400) must measure memory, not cache.
		opts.MemSize = 8 << 20
		opts.FileSize = 8 << 20
		opts.MaxChaseSize = 8 << 20
		opts.FSFiles = 500
		opts.CtxProcs = []int{2, 4, 8, 12, 16, 20}
		opts.CtxSizes = []int64{0, 4 << 10, 16 << 10, 32 << 10, 64 << 10}
	}

	options := []lmbench.Option{
		lmbench.WithOptions(opts),
		lmbench.WithParallel(runtime.GOMAXPROCS(0)),
	}
	for _, n := range names {
		m, err := lmbench.NewSimMachine(n)
		if err != nil {
			return err
		}
		options = append(options, lmbench.WithMachine(m))
	}
	if !*quietFlag {
		options = append(options, lmbench.WithSink(lmbench.NewPrefixedTextSink(os.Stderr)))
	}
	if *storeFlag != "" {
		options = append(options, lmbench.WithStore(*storeFlag))
	}
	if *publishFlag != "" {
		options = append(options, lmbench.WithPublish(*publishFlag))
	}
	if *retriesFlag != 0 {
		options = append(options, lmbench.WithPublishRetries(*retriesFlag))
	}
	if *labelFlag != "" {
		options = append(options, lmbench.WithRunLabel(*labelFlag))
	}

	rep, err := lmbench.New(options...).Run(context.Background())
	if err != nil {
		return err
	}
	db := rep.DB
	if (*storeFlag != "" || *publishFlag != "") && !*quietFlag {
		fmt.Fprintf(os.Stderr, "published run %s\n", rep.RunID)
	}

	if err := rep.Render(os.Stdout); err != nil {
		return err
	}

	if *gnuplotFlag != "" {
		if err := os.MkdirAll(*gnuplotFlag, 0o755); err != nil {
			return err
		}
		for _, machine := range db.Machines() {
			base := sanitize(machine)
			if plot, err := paper.Figure1Plot(db, machine); err == nil {
				if err := writePlot(filepath.Join(*gnuplotFlag, "fig1_"+base+".dat"), plot); err != nil {
					return err
				}
			}
			if plot, err := paper.Figure2Plot(db, machine); err == nil {
				if err := writePlot(filepath.Join(*gnuplotFlag, "fig2_"+base+".dat"), plot); err != nil {
					return err
				}
			}
		}
	}

	if *svgFlag != "" {
		if err := os.MkdirAll(*svgFlag, 0o755); err != nil {
			return err
		}
		for _, machine := range db.Machines() {
			base := sanitize(machine)
			if plot, err := paper.Figure1Plot(db, machine); err == nil {
				if err := writeSVG(filepath.Join(*svgFlag, "fig1_"+base+".svg"), plot); err != nil {
					return err
				}
			}
			if plot, err := paper.Figure2Plot(db, machine); err == nil {
				if err := writeSVG(filepath.Join(*svgFlag, "fig2_"+base+".svg"), plot); err != nil {
					return err
				}
			}
		}
	}

	if *outFlag != "" {
		f, err := os.Create(*outFlag)
		if err != nil {
			return err
		}
		defer func() { _ = f.Close() }()
		return db.Encode(f)
	}
	return nil
}

func sanitize(machine string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case '/', ' ', '@':
			return '_'
		}
		return r
	}, machine)
}

func writeSVG(path string, plot *report.Plot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()
	return plot.WriteSVG(f)
}

func writePlot(path string, plot *report.Plot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()
	return plot.WriteGnuplot(f)
}
