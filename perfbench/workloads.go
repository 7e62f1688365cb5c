package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	lmbench "repro"
	"repro/internal/machines"
	"repro/internal/ptime"
	"repro/internal/timing"
)

// workload is one benchmark scenario. Suite workloads run the suite
// in-process through lmbench.New(...).Run on freshly built machines;
// warm-rerun drives the lmbench CLI against a unit cache.
type workload struct {
	// profiles lists the workload's machines in canonical order and the
	// catalog that resolves them.
	profiles func() ([]string, *lmbench.Catalog)
	options  lmbench.Options
	// only restricts the suite to these experiment IDs (nil: all).
	only []string
	// parallel is the in-process worker count of the timed phase
	// (warm-rerun: of the cache fill); 0 is serial.
	parallel int
	// committed selects the digests in digests.json as the expected
	// output instead of results/simulated.db.
	committed bool
	// warm marks warm-rerun, whose timed phase is the CLI.
	warm bool
}

var workloads = map[string]*workload{
	"paper-mem":        {profiles: compiledProfiles, options: paperOptions(), only: paperMemIDs},
	"paper-bw-ctx":     {profiles: compiledProfiles, options: paperOptions(), only: paperBWCtxIDs()},
	"catalog-parallel": {profiles: catalogProfiles, options: paperOptions(), parallel: runtime.NumCPU(), committed: true},
	"warm-rerun":       {profiles: compiledProfiles, options: fastOptions(), parallel: runtime.NumCPU(), committed: true, warm: true},
}

// units is the number of work units (machine × group) in one round.
func (w *workload) units() int {
	names, _ := w.profiles()
	return len(names) * len(groupsFor(w.only))
}

// paperMemIDs is the Figure-1 group: the memory-latency sweep and the
// Table-6 extraction that shares its run.
var paperMemIDs = []string{"figure1", "table6"}

// paperBWCtxIDs is every other paper experiment.
func paperBWCtxIDs() []string {
	var ids []string
	for _, e := range lmbench.Experiments() {
		if !slices.Contains(paperMemIDs, e.ID) {
			ids = append(ids, e.ID)
		}
	}
	return ids
}

// compiledProfiles are the 15 compiled Table-1 profiles behind
// results/simulated.db.
func compiledProfiles() ([]string, *lmbench.Catalog) {
	return lmbench.SimMachineNames(), lmbench.DefaultCatalog()
}

// catalogProfiles are the data-file catalog profiles: every default
// catalog entry that is not one of the compiled profiles (the MP
// variants, the remaining Table-1 machines and the Modern/* geometries).
func catalogProfiles() ([]string, *lmbench.Catalog) {
	cat := lmbench.DefaultCatalog()
	compiled := map[string]bool{}
	for _, n := range lmbench.SimMachineNames() {
		compiled[n] = true
	}
	var names []string
	for _, n := range lmbench.CatalogMachineNames(cat) {
		if !compiled[n] {
			names = append(names, n)
		}
	}
	return names, cat
}

// paperOptions are cmd/lmreport's default options: the golden
// evaluation's settings.
func paperOptions() lmbench.Options {
	return lmbench.Options{
		Timing:       timing.Options{MinSampleTime: ptime.Millisecond, Samples: 2},
		MemSize:      8 << 20,
		FileSize:     8 << 20,
		MaxChaseSize: 8 << 20,
		FSFiles:      500,
		CtxProcs:     []int{2, 4, 8, 12, 16, 20},
		CtxSizes:     []int64{0, 4 << 10, 16 << 10, 32 << 10, 64 << 10},
	}
}

// fastOptions are cmd/lmbench's -fast options, so a cache filled
// through the API answers the CLI's keys.
func fastOptions() lmbench.Options {
	return lmbench.Options{
		Timing:       timing.Options{MinSampleTime: ptime.Millisecond, Samples: 3},
		MemSize:      2 << 20,
		FileSize:     2 << 20,
		MaxChaseSize: 2 << 20,
		FSFiles:      200,
		CtxProcs:     []int{2, 8, 16},
		CtxSizes:     []int64{0, 16 << 10, 32 << 10},
		SweepShards:  1,
		SweepMode:    lmbench.SweepExhaustive,
	}
}

// seedOrder returns names permuted by seed. The database encodes
// canonically, so the order changes scheduling, never output bytes.
func seedOrder(names []string, seed int64) []string {
	out := append([]string(nil), names...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// childReport is what a child step prints: its set-up cost, and for
// rounds the timed phase and where its database landed.
type childReport struct {
	SetupS   float64            `json:"setup_s"`
	BuildMS  map[string]float64 `json:"build_ms"`
	WallS    float64            `json:"wall_s"`
	CPUS     float64            `json:"cpu_s"`
	AllocMB  float64            `json:"alloc_mb"`
	GCCycles float64            `json:"gc_cycles"`
	// PeakRSSMB is the process's own peak resident set; see peakRSSMB.
	PeakRSSMB float64   `json:"peak_rss_mb"`
	Start     time.Time `json:"start"`
	End       time.Time `json:"end"`
	DB        string    `json:"db,omitempty"`
	Events    string    `json:"events,omitempty"`
	Err       string    `json:"error,omitempty"`
}

// runChild is one child process step: "setup" builds the workload's
// machines, "round" builds them and runs the suite once, "fill" builds
// them and fills a unit cache (warm-rerun's set-up), and "warm" runs
// the suite serially against the filled cache, read-only.
func runChild(kind, name string, seed int64, work string, traced bool) error {
	w, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	names, cat := w.profiles()
	names = seedOrder(names, seed)
	rep := childReport{BuildMS: map[string]float64{}}
	start := time.Now()

	ms, err := buildMachines(cat, names, runtime.NumCPU(), rep.BuildMS)
	if err != nil {
		return err
	}
	rep.SetupS = time.Since(start).Seconds()
	if kind == "setup" {
		rep.PeakRSSMB = peakRSSMB()
		return json.NewEncoder(os.Stdout).Encode(rep)
	}

	options := []lmbench.Option{
		lmbench.WithOptions(w.options),
		lmbench.WithParallel(w.parallel),
	}
	if w.only != nil {
		options = append(options, lmbench.WithOnly(w.only...))
	}
	for _, m := range ms {
		options = append(options, lmbench.WithMachine(m))
	}
	switch kind {
	case "fill":
		options = append(options, lmbench.WithUnitCache(filepath.Join(work, "cache")))
	case "warm":
		options = append(options, lmbench.WithParallel(1),
			lmbench.WithUnitCache(filepath.Join(work, "cache")), lmbench.WithUnitCacheReadOnly())
	case "round":
	default:
		return fmt.Errorf("unknown child step %q", kind)
	}
	var closeTrace func() error
	if traced {
		rep.Events = filepath.Join(work, fmt.Sprintf("events-%d.jsonl", os.Getpid()))
		ev, err := os.Create(rep.Events)
		if err != nil {
			return err
		}
		defer ev.Close()
		spans, err := os.Create(filepath.Join(work, fmt.Sprintf("spans-%d.jsonl", os.Getpid())))
		if err != nil {
			return err
		}
		defer spans.Close()
		ts := lmbench.NewTraceSink(spans)
		closeTrace = ts.Close
		options = append(options, lmbench.WithSink(lmbench.NewJSONLSink(ev)), lmbench.WithSink(ts))
	}

	var ru0, ru1 syscall.Rusage
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru0)
	rep.Start = time.Now()
	r, err := lmbench.New(options...).Run(context.Background())
	rep.End = time.Now()
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	runtime.ReadMemStats(&m1)
	if closeTrace != nil {
		if cerr := closeTrace(); cerr != nil && err == nil {
			err = cerr
		}
	}
	rep.WallS = rep.End.Sub(rep.Start).Seconds()
	rep.CPUS = cpuSeconds(ru1) - cpuSeconds(ru0)
	rep.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	rep.GCCycles = float64(m1.NumGC - m0.NumGC)
	if err != nil {
		rep.Err = err.Error()
	} else {
		rep.DB = filepath.Join(work, fmt.Sprintf("%s-%d.db", kind, os.Getpid()))
		if err := writeDB(rep.DB, r.DB); err != nil {
			return err
		}
	}
	rep.PeakRSSMB = peakRSSMB()
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// peakRSSMB is this process's peak resident set (VmHWM) in MB. It
// counts this process's own address space only. The rusage maxrss a
// parent reads does not: os/exec spawns with vfork, and exec folds the
// spawner's high-water mark into the child's, so a child would never
// read below the benchmark driver's own footprint.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// execReport is what the exec child step prints about its command.
type execReport struct {
	Start     time.Time `json:"start"`
	End       time.Time `json:"end"`
	WallS     float64   `json:"wall_s"`
	CPUS      float64   `json:"cpu_s"`
	PeakRSSMB float64   `json:"peak_rss_mb"`
	Stderr    string    `json:"stderr"`
	Err       string    `json:"error,omitempty"`
}

// runExec is the "exec" child step: it runs a command and reports its
// wall time, CPU time and peak resident set. The command's rusage
// maxrss starts at its spawner's high-water mark (see peakRSSMB), so
// it is launched from this small fresh process rather than from the
// benchmark driver, whose own footprint would otherwise read as the
// command's.
func runExec(args []string) error {
	if len(args) == 0 {
		return errors.New("exec: no command")
	}
	cmd := exec.Command(args[0], args[1:]...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	rep := execReport{Start: time.Now()}
	err := cmd.Run()
	rep.End = time.Now()
	rep.WallS = rep.End.Sub(rep.Start).Seconds()
	rep.Stderr = stderr.String()
	if err != nil {
		rep.Err = err.Error()
	}
	if ps := cmd.ProcessState; ps != nil {
		ru := ps.SysUsage().(*syscall.Rusage)
		rep.CPUS = cpuSeconds(*ru)
		rep.PeakRSSMB = float64(ru.Maxrss) / 1024
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

func cpuSeconds(ru syscall.Rusage) float64 {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// buildMachines constructs the named machines with machines.Build on
// workers goroutines, recording each profile's build time in ms.
// Construction is independent per profile, so set-up uses every CPU
// whether or not the workload's timed phase does.
func buildMachines(cat *lmbench.Catalog, names []string, workers int, buildMS map[string]float64) ([]lmbench.Machine, error) {
	if workers < 1 {
		workers = 1
	}
	ms := make([]lmbench.Machine, len(names))
	times := make([]float64, len(names))
	errs := make([]error, len(names))
	next := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				p, ok := cat.ByName(names[i])
				if !ok {
					errs[i] = fmt.Errorf("profile %q not in catalog", names[i])
					continue
				}
				t := time.Now()
				m, err := machines.Build(p)
				times[i] = float64(time.Since(t)) / float64(time.Millisecond)
				ms[i], errs[i] = m, err
			}
		}()
	}
	for i := range names {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, n := range names {
		if errs[i] != nil {
			return nil, errs[i]
		}
		buildMS[n] = times[i]
	}
	return ms, nil
}
