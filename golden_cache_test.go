package lmbench_test

import (
	"context"
	"sync"
	"testing"

	lmbench "repro"
	"repro/internal/core"
	"repro/internal/machines"
)

// The unit-cache golden tests prove the incremental-evaluation
// contract: a run served partially or entirely from the cache is
// byte-identical to one computed from scratch — same golden hash, in
// serial and fleet mode, and across an interrupted-and-resumed run.

// cacheBench assembles a full-suite builder over every simulated
// machine with the golden options and the unit cache at dir.
func cacheBench(t *testing.T, dir string, extra ...lmbench.Option) *lmbench.Bench {
	t.Helper()
	opts := []lmbench.Option{
		lmbench.WithOptions(goldenOpts()),
		lmbench.WithUnitCache(dir),
	}
	for _, n := range machines.Names() {
		m, err := lmbench.NewSimMachine(n)
		if err != nil {
			t.Fatal(err)
		}
		opts = append(opts, lmbench.WithMachine(m))
	}
	return lmbench.New(append(opts, extra...)...)
}

// TestGoldenUnitCacheColdWarmMixed drives the whole evaluation through
// one cache directory: a cold serial run fills it, warm runs (serial
// and fleet) execute zero units, and a mixed run over a half-seeded
// cache recomputes exactly the missing units — all landing on the
// pinned golden hash.
func TestGoldenUnitCacheColdWarmMixed(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite regeneration is slow; skipped with -short")
	}
	dir := t.TempDir()
	groups := len(core.GroupExperiments(core.Experiments(), nil))
	total := int64(len(machines.Names()) * groups)

	rep, err := cacheBench(t, dir).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, rep.DB, "cold-serial")
	if rep.Cache == nil {
		t.Fatal("cold run: Report.Cache is nil")
	}
	if rep.Cache.Hits != 0 || rep.Cache.Misses != total || rep.Cache.Stored != total {
		t.Errorf("cold run stats %s, want misses=stored=%d hits=0", rep.Cache, total)
	}

	rep, err = cacheBench(t, dir).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, rep.DB, "warm-serial")
	if rep.Cache.Hits != total || rep.Cache.Misses != 0 {
		t.Errorf("warm run stats %s, want hits=%d misses=0", rep.Cache, total)
	}

	// A fully-warm fleet run serves every unit before dialing, so the
	// pool size cannot matter.
	rep, err = cacheBench(t, dir, lmbench.WithFleetConnect(startFleet(t, 1)...)).Run(context.Background())
	if err != nil {
		t.Fatalf("warm fleet: %v", err)
	}
	checkGolden(t, rep.DB, "warm-fleet")
	if rep.Cache.Hits != total || rep.Cache.Misses != 0 {
		t.Errorf("warm fleet stats %s, want hits=%d misses=0", rep.Cache, total)
	}

	// Mixed: seed a fresh cache with a subset of experiments, then run
	// the full suite — only the unseeded units may execute.
	mixed := t.TempDir()
	subset := []string{"table2", "table7", "table9"}
	rep, err = cacheBench(t, mixed, lmbench.WithOnly(subset...)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	only := map[string]bool{}
	for _, id := range subset {
		only[id] = true
	}
	seeded := int64(len(machines.Names()) * len(core.GroupExperiments(core.Experiments(), only)))
	if rep.Cache.Stored != seeded {
		t.Fatalf("subset seeding stored %d units, want %d", rep.Cache.Stored, seeded)
	}
	rep, err = cacheBench(t, mixed).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, rep.DB, "mixed-hit-miss")
	if rep.Cache.Hits != seeded || rep.Cache.Misses != total-seeded {
		t.Errorf("mixed run stats %s, want hits=%d misses=%d",
			rep.Cache, seeded, total-seeded)
	}
}

// TestGoldenUnitCacheInterruptResume interrupts a journaled, cached
// fleet run partway through, resumes it, and then replays a fresh run
// against the populated cache: the resume lands on the golden hash,
// and the final fully-warm run executes nothing at all. Which store
// serves a unit when both hold it is asserted by
// core.TestUnitLedgerPolicy.
func TestGoldenUnitCacheInterruptResume(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite fleet regeneration is slow; skipped with -short")
	}
	dir := t.TempDir()
	jnl := t.TempDir() + "/cache.jnl"
	groups := len(core.GroupExperiments(core.Experiments(), nil))
	total := int64(len(machines.Names()) * groups)
	fleet := lmbench.WithFleetConnect(startFleet(t, 4)...)

	// First run: cancel once a third of the groups have finished.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	finished := 0
	counting := sinkFunc(func(e lmbench.Event) {
		if e.Kind != core.ExperimentFinished {
			return
		}
		mu.Lock()
		finished++
		n := finished
		mu.Unlock()
		if int64(n) == total/3 {
			cancel()
		}
	})
	_, err := cacheBench(t, dir,
		fleet, lmbench.WithJournal(jnl), lmbench.WithSink(counting),
	).Run(ctx)
	if err == nil {
		t.Fatal("interrupted run reported success")
	}

	// Resume: journaled units replay from the journal, the remainder
	// runs (or comes from the cache) — and the database is golden.
	rep, err := cacheBench(t, dir,
		fleet, lmbench.WithJournal(jnl),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, rep.DB, "interrupt+resume")

	// A fresh run against the now-complete cache executes zero units.
	rep, err = cacheBench(t, dir, fleet).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, rep.DB, "post-resume-warm")
	if rep.Cache.Hits != total || rep.Cache.Misses != 0 {
		t.Errorf("post-resume warm stats %s, want hits=%d misses=0", rep.Cache, total)
	}
}
