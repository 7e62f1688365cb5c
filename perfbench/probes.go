package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	lmbench "repro"
	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/sim"
	"repro/internal/simmem"
	"repro/internal/simos"
	"repro/internal/store"
)

// The layer probes time direct calls into exported functions of one
// package each. The simmem geometries are those of
// internal/simmem/bench_test.go, so the numbers line up with the
// BENCH_pr3.json history; every probe reports the median of probeReps
// repetitions.

const probeReps = 5

// repeat runs f probeReps times and returns the median of its results.
func repeat(f func() float64) float64 {
	xs := make([]float64, probeReps)
	for i := range xs {
		xs[i] = f()
	}
	return median(xs)
}

// nsPer times n calls of op and returns ns per call.
func nsPer(n int, op func()) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		op()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// probeHierarchy is the micro-benchmark hierarchy: 8 KB 2-way L1,
// 256 KB 4-way L2, 64-entry TLB.
func probeHierarchy(mutate func(*simmem.Config)) *simmem.Hierarchy {
	clk := &sim.Clock{}
	cpu := sim.NewCPU(clk, sim.CPUConfig{MHz: 100, IssueWidth: 4})
	cfg := simmem.Config{
		Caches: []simmem.CacheConfig{
			{Name: "L1", Size: 8 << 10, LineSize: 32, Assoc: 2, LatencyNS: 5, FillNS: 5},
			{Name: "L2", Size: 256 << 10, LineSize: 32, Assoc: 4, LatencyNS: 50, FillNS: 40},
		},
		DRAM: simmem.DRAMConfig{LatencyNS: 300, FillNS: 100, WritebackNS: 100},
		TLB:  simmem.TLBConfig{Entries: 64, PageSize: 4 << 10, MissNS: 200},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	h, err := simmem.New(cpu, cfg)
	if err != nil {
		panic(err) // a fixed, valid geometry
	}
	return h
}

// simmemProbes times the four simulator fast paths.
func simmemProbes() map[string]metric {
	l1 := repeat(func() float64 {
		h := probeHierarchy(nil)
		addr := h.Alloc(4096)
		h.Load(addr)
		return nsPer(2_000_000, func() { h.Load(addr) })
	})
	fa := repeat(func() float64 {
		h := probeHierarchy(func(cfg *simmem.Config) {
			cfg.Caches[0].Assoc = 64
			cfg.Caches[0].Size = 64 * 32
		})
		addr := h.Alloc(4096)
		h.Load(addr)
		return nsPer(2_000_000, func() { h.Load(addr) })
	})
	chase := repeat(func() float64 {
		h := probeHierarchy(nil)
		ch := h.NewChase(h.Alloc(4<<20), 4<<20, 128)
		ch.Walk(ch.Length())
		const n = 300_000
		start := time.Now()
		ch.Walk(n)
		return float64(time.Since(start).Nanoseconds()) / n
	})
	stream := repeat(func() float64 {
		h := probeHierarchy(nil)
		const bytes = 128 << 10
		base := h.Alloc(bytes)
		h.StreamRead(base, bytes)
		return nsPer(200, func() { h.StreamRead(base, bytes) }) / (bytes >> 10)
	})
	return map[string]metric{
		"simmem.l1_hit_ns":                 {l1, "ns"},
		"simmem.fa_hit_ns":                 {fa, "ns"},
		"simmem.dram_chase_ns":             {chase, "ns"},
		"simmem.stream_resident_ns_per_kb": {stream, "ns/KB"},
	}
}

// ringPassNS times simos.Ring.Pass at 16 processes with a 32 KB
// footprint each: the Figure-2 context-switch inner loop.
func ringPassNS() (float64, error) {
	var err error
	v := repeat(func() float64 {
		h := probeHierarchy(nil)
		o := simos.New(h.CPU(), h, simos.Config{})
		r, e := o.NewRing(16, 32<<10)
		if e != nil {
			err = e
			return 0
		}
		r.Warm()
		return nsPer(2_000, r.Pass)
	})
	return v, err
}

// unitcacheProbe stores the golden database as 210 unit records (15
// compiled profiles × 14 groups) into a fresh cache, then looks every
// unit up in seed order, timing each call.
func unitcacheProbe(golden *lmbench.DB, dir string, seed int64) (map[string]metric, error) {
	cat := lmbench.DefaultCatalog()
	cache, err := lmbench.OpenUnitCache(dir, paperOptions(), lmbench.UnitCacheConfig{Resolve: cat.ByName})
	if err != nil {
		return nil, err
	}
	byUnit, err := unitEntries(golden)
	if err != nil {
		return nil, err
	}
	var units []unit
	for _, m := range lmbench.SimMachineNames() {
		for _, g := range groupsFor(nil) {
			units = append(units, unit{m, g})
		}
	}
	var storeMS, lookupUS []float64
	for _, u := range units {
		rec := core.JournalRecord{Machine: u.machine, Key: u.group, Entries: byUnit[u]}
		if len(rec.Entries) == 0 {
			rec.Skipped, rec.Err = true, "no entries"
		}
		start := time.Now()
		if err := cache.Store(rec); err != nil {
			return nil, err
		}
		storeMS = append(storeMS, float64(time.Since(start).Nanoseconds())/1e6)
	}
	hits := 0
	order := seedPerm(len(units), seed)
	for _, i := range order {
		u := units[i]
		start := time.Now()
		rec, ok := cache.Lookup(u.machine, u.group)
		lookupUS = append(lookupUS, float64(time.Since(start).Nanoseconds())/1e3)
		if ok && len(rec.Entries) == len(byUnit[u]) {
			hits++
		}
	}
	return map[string]metric{
		"unitcache.lookup_us.p50": {percentile(lookupUS, 50), "us"},
		"unitcache.lookup_us.p90": {percentile(lookupUS, 90), "us"},
		"unitcache.store_ms.p50":  {percentile(storeMS, 50), "ms"},
		"unitcache.hit_ratio":     {float64(hits) / float64(len(units)), "fraction"},
	}, nil
}

// codecProbes time the results encoder, the store's content hash and
// the paper renderer over the golden database.
func codecProbes(golden *lmbench.DB) (map[string]metric, error) {
	var err error
	ms := func(f func() error) float64 {
		return repeat(func() float64 {
			start := time.Now()
			if e := f(); e != nil {
				err = e
			}
			return float64(time.Since(start).Nanoseconds()) / 1e6
		})
	}
	enc := ms(func() error { return golden.Encode(io.Discard) })
	hash := ms(func() error { _, e := store.ContentHash(golden); return e })
	render := ms(func() error { return lmbench.RenderReport(io.Discard, golden) })
	return map[string]metric{
		"results.encode_ms":     {enc, "ms"},
		"store.content_hash_ms": {hash, "ms"},
		"paper.render_ms":       {render, "ms"},
	}, err
}

// probeProfile is the fixed profile the suite probe runs every group
// on: the paper's reference Linux/i686.
const probeProfile = "Linux/i686"

// suiteProbe runs the whole suite on probeProfile with the JSONL and
// trace sinks attached and returns its event stream: the per-group
// host wall and the simulator's activity counters come from it.
func suiteProbe(work string) ([]event, error) {
	p, ok := machines.ByName(probeProfile)
	if !ok {
		return nil, fmt.Errorf("no profile %q", probeProfile)
	}
	m, err := machines.Build(p)
	if err != nil {
		return nil, err
	}
	spans, err := os.Create(filepath.Join(work, "probe-spans.jsonl"))
	if err != nil {
		return nil, err
	}
	defer spans.Close()
	ts := lmbench.NewTraceSink(spans)
	var ev bytes.Buffer
	_, err = lmbench.New(
		lmbench.WithOptions(paperOptions()),
		lmbench.WithMachine(m),
		lmbench.WithSink(lmbench.NewJSONLSink(&ev)),
		lmbench.WithSink(ts),
	).Run(context.Background())
	if err != nil {
		return nil, err
	}
	if err := ts.Close(); err != nil {
		return nil, err
	}
	return parseEvents(&ev)
}
