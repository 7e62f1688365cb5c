package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	lmbench "repro"
	"repro/internal/stats"
)

// event is the subset of a NewJSONLSink line the layer metrics read.
type event struct {
	Kind       string           `json:"kind"`
	Time       time.Time        `json:"time"`
	Machine    string           `json:"machine"`
	Experiment string           `json:"experiment"`
	DurationNS int64            `json:"duration_ns"`
	Sim        map[string]int64 `json:"sim"`
}

func parseEvents(r io.Reader) ([]event, error) {
	var evs []event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var e event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("event trace: %w", err)
		}
		evs = append(evs, e)
	}
	return evs, sc.Err()
}

func readEvents(path string) ([]event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseEvents(f)
}

// schedStats derives the scheduler's efficiency from one run's machine
// events. core.Runner dispatches whole machines to its workers, so a
// machine run is the scheduler's unit of work:
//
//   - busy is Σ machine busy time ÷ (wall × workers);
//   - tail is the time from the first worker going idle (the first
//     machine to finish after the last one started: from then on the
//     queue is empty) to the end of the run.
func schedStats(evs []event, start, end time.Time, workers int) (busy, tail float64) {
	var last time.Time
	var busyNS int64
	for _, e := range evs {
		switch e.Kind {
		case "machine_started":
			if e.Time.After(last) {
				last = e.Time
			}
		case "machine_finished":
			busyNS += e.DurationNS
		}
	}
	idle := end
	for _, e := range evs {
		if e.Kind == "machine_finished" && e.Time.After(last) && e.Time.Before(idle) {
			idle = e.Time
		}
	}
	if workers < 1 {
		workers = 1
	}
	wall := end.Sub(start).Seconds()
	if wall <= 0 {
		return 0, 0
	}
	return float64(busyNS) / 1e9 / (wall * float64(workers)), end.Sub(idle).Seconds()
}

// groupBuckets name the experiment groups timed on their own, by a
// member experiment (figure1 is the mem_hier group with Table 6,
// figure2 the ctx group with Table 10); every other group lands in
// "other".
var groupBuckets = []string{"figure1", "table2", "table5", "figure2", "table3"}

// groupSeconds sums experiment_finished durations per group bucket. A
// group emits one event per run, under its first member's ID.
func groupSeconds(evs []event) map[string]metric {
	groupOf := map[string]string{}
	for _, e := range lmbench.Experiments() {
		groupOf[e.ID] = e.RunKey
		if e.RunKey == "" {
			groupOf[e.ID] = e.ID
		}
	}
	bucketOf := map[string]string{}
	for _, b := range groupBuckets {
		bucketOf[groupOf[b]] = b
	}
	secs := map[string]float64{"other": 0}
	for _, b := range groupBuckets {
		secs[b] = 0
	}
	for _, e := range evs {
		if e.Kind != "experiment_finished" {
			continue
		}
		b, ok := bucketOf[groupOf[e.Experiment]]
		if !ok {
			b = "other"
		}
		secs[b] += float64(e.DurationNS) / 1e9
	}
	out := map[string]metric{}
	for b, s := range secs {
		out["core.group_s."+b] = metric{s, "s"}
	}
	return out
}

// simCounters sums the simulator's activity counters over finished
// experiments. accesses counts every hierarchy access: the hits of
// each cache level plus those serviced by DRAM.
func simCounters(evs []event) map[string]metric {
	var accesses, l2, tlb, wb, busyNS int64
	for _, e := range evs {
		if e.Kind != "experiment_finished" {
			continue
		}
		busyNS += e.DurationNS
		for k, v := range e.Sim {
			switch {
			case k == "mem_accesses":
				accesses += v
			case k == "tlb_misses":
				tlb += v
			case k == "writebacks":
				wb += v
			case strings.HasPrefix(k, "l") && strings.HasSuffix(k, "_hits"):
				accesses += v
				if k == "l2_hits" {
					l2 += v
				}
			}
		}
	}
	perAccess := 0.0
	if accesses > 0 {
		perAccess = float64(busyNS) / float64(accesses)
	}
	return map[string]metric{
		"simmem.accesses":           {float64(accesses), "count"},
		"simmem.l2_hits":            {float64(l2), "count"},
		"simmem.tlb_misses":         {float64(tlb), "count"},
		"simmem.writebacks":         {float64(wb), "count"},
		"simmem.host_ns_per_access": {perAccess, "ns"},
	}
}

// span is one call from the benchmark into a layer during a traced
// run, in ms from the start of the layer pass. Every span's parent is
// the run itself; spans inside the program come from NewTraceSink.
type span struct {
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
}

// spanLog keeps a traced run's spans in memory until the run record is
// written.
type spanLog struct {
	t0    time.Time
	spans []span
}

// time opens a span; call the result to close it.
func (l *spanLog) time(name string) func() {
	start := time.Now()
	return func() {
		ms := func(t time.Time) float64 { return float64(t.Sub(l.t0).Nanoseconds()) / 1e6 }
		l.spans = append(l.spans, span{name, ms(start), ms(time.Now())})
	}
}

// suiteLayers is a suite workload's traced run: one round with the
// JSONL and trace sinks attached, then the layer probes.
func suiteLayers(w *workload, c config, golden *lmbench.DB, o *outcome, log *spanLog) (map[string]metric, error) {
	end := log.time("traced round")
	rep, err := spawn(c, "round", true)
	end()
	if err != nil {
		return nil, err
	}
	if ok, err := o.checkRound("traced round", rep); err != nil || !ok {
		return nil, fmt.Errorf("traced round failed: %v %s", err, rep.Err)
	}
	evs, err := readEvents(rep.Events)
	if err != nil {
		return nil, err
	}
	names, _ := w.profiles()
	workers := min(max(w.parallel, 1), len(names))
	busy, tail := schedStats(evs, rep.Start, rep.End, workers)
	m := map[string]metric{
		"trace.overhead_s": {rep.WallS - o.med("wall_s"), "s"},
		"core.busy_frac":   {busy, "fraction"},
		"core.tail_s":      {tail, "s"},
		"go.alloc_mb":      {medianOf(o.rounds, func(r childReport) float64 { return r.AllocMB }), "MB"},
		"go.gc_cycles":     {medianOf(o.rounds, func(r childReport) float64 { return r.GCCycles }), "count"},
	}
	return m, commonLayers(c, golden, o, m, log)
}

// warmLayers is warm-rerun's traced run: one CLI re-run with -trace,
// an in-process warm run for the Go allocator figures, then the layer
// probes.
func warmLayers(c config, golden *lmbench.DB, o *outcome, log *spanLog) (map[string]metric, error) {
	trace := filepath.Join(c.work, "rerun-trace.jsonl")
	closeSpan := log.time("traced re-run")
	r := warmRerun(c, -1, "-trace", trace)
	closeSpan()
	if ok, err := o.checkRerun("traced re-run", r); err != nil || !ok {
		return nil, fmt.Errorf("traced re-run failed: %v %v", err, r.err)
	}
	evs, err := readEvents(trace)
	if err != nil {
		return nil, err
	}
	busy, tail := schedStats(evs, r.Start, r.End, 1)
	closeSpan = log.time("in-process warm run")
	warm, err := spawn(c, "warm", false)
	closeSpan()
	if err != nil {
		return nil, err
	}
	if ok, err := o.checkRound("in-process warm run", warm); err != nil || !ok {
		return nil, fmt.Errorf("in-process warm run failed: %v %s", err, warm.Err)
	}
	m := map[string]metric{
		"trace.overhead_s": {r.WallS - o.med("wall_s"), "s"},
		"core.busy_frac":   {busy, "fraction"},
		"core.tail_s":      {tail, "s"},
		"go.alloc_mb":      {warm.AllocMB, "MB"},
		"go.gc_cycles":     {warm.GCCycles, "count"},
	}
	return m, commonLayers(c, golden, o, m, log)
}

// commonLayers adds the metrics every traced run reports: set-up per
// profile, the suite probe, the micro probes and the host reference.
func commonLayers(c config, golden *lmbench.DB, o *outcome, m map[string]metric, log *spanLog) error {
	m["machines.build_ms.sum"] = metric{o.med("machines.build_ms.sum"), "ms"}
	m["machines.build_ms.max"] = metric{o.med("machines.build_ms.max"), "ms"}
	end := log.time("suite probe")
	evs, err := suiteProbe(c.work)
	end()
	if err != nil {
		return fmt.Errorf("suite probe: %w", err)
	}
	for k, v := range groupSeconds(evs) {
		m[k] = v
	}
	for k, v := range simCounters(evs) {
		m[k] = v
	}
	end = log.time("simmem probes")
	for k, v := range simmemProbes() {
		m[k] = v
	}
	end()
	end = log.time("simos ring probe")
	ring, err := ringPassNS()
	end()
	if err != nil {
		return fmt.Errorf("ring probe: %w", err)
	}
	m["simos.ring_pass_ns"] = metric{ring, "ns"}
	end = log.time("unitcache probe")
	uc, err := unitcacheProbe(golden, filepath.Join(c.work, "probe-cache"), c.seed)
	end()
	if err != nil {
		return fmt.Errorf("unit-cache probe: %w", err)
	}
	for k, v := range uc {
		m[k] = v
	}
	end = log.time("codec probes")
	codec, err := codecProbes(golden)
	end()
	if err != nil {
		return fmt.Errorf("codec probes: %w", err)
	}
	for k, v := range codec {
		m[k] = v
	}
	m["host.ref_ms"] = metric{hostRef(), "ms"}
	return nil
}

// median and percentile aggregate through internal/stats; an empty
// sample set aggregates to 0.
func median(xs []float64) float64 { return percentile(xs, 50) }

func percentile(xs []float64, p float64) float64 {
	v, err := stats.Percentile(xs, p)
	if err != nil {
		return 0
	}
	return v
}

// summary is a sample set's median and quartiles, as the run record
// reports them.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func summarize(xs []float64) summary {
	return summary{N: len(xs), Median: median(xs), Q1: percentile(xs, 25), Q3: percentile(xs, 75)}
}

func medianOf(rs []childReport, f func(childReport) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return median(xs)
}

// seedPerm is a seed-determined permutation of 0..n-1.
func seedPerm(n int, seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
