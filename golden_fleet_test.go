package lmbench_test

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"testing"

	lmbench "repro"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/machines"
	"repro/internal/results"
)

// The facade's fleet metrics must satisfy the coordinator's observer
// contract, and its cache metrics the unit cache's.
var _ fleet.Observer = (*lmbench.FleetMetrics)(nil)
var _ lmbench.CacheObserver = (*lmbench.CacheMetrics)(nil)

// startFleet boots n worker daemons in this process on loopback and
// returns their addresses; the daemons drain when the test ends.
func startFleet(t *testing.T, n int) []string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	t.Cleanup(func() {
		cancel()
		wg.Wait()
	})
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fleet.ServeWith(ctx, ln, fleet.ServeOptions{Logf: t.Logf}); err != nil {
				t.Errorf("fleet daemon: %v", err)
			}
		}()
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

// TestGoldenDatabaseFleetByteIdentical regenerates the entire
// evaluation across worker daemons and pins the result against the
// same golden hash as the serial run: fleet execution is proven to
// change nothing observable at any pool size.
func TestGoldenDatabaseFleetByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite fleet regeneration is slow; skipped with -short")
	}
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			db := &results.DB{}
			c := &fleet.Coordinator{
				Machines: machines.Names(), Opts: goldenOpts(),
				Connect: startFleet(t, workers),
			}
			if _, err := c.Run(context.Background(), db); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, db, t.Name())
		})
	}
}

// TestGoldenFleetInterruptResume interrupts a journaled fleet run
// partway through (the coordinator analogue of kill -9: the context is
// cut and the worker connections torn down), then resumes from the
// journal through the public facade — and still lands on the golden
// hash.
func TestGoldenFleetInterruptResume(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite fleet regeneration is slow; skipped with -short")
	}
	path := filepath.Join(t.TempDir(), "golden.jnl")
	daemons := startFleet(t, 4)
	sims := make([]lmbench.Machine, 0, len(machines.Names()))
	for _, n := range machines.Names() {
		m, err := lmbench.NewSimMachine(n)
		if err != nil {
			t.Fatal(err)
		}
		sims = append(sims, m)
	}
	bench := func(extra ...lmbench.Option) *lmbench.Bench {
		opts := []lmbench.Option{
			lmbench.WithOptions(goldenOpts()),
			lmbench.WithJournal(path),
			lmbench.WithFleetConnect(daemons...),
		}
		for _, m := range sims {
			opts = append(opts, lmbench.WithMachine(m))
		}
		return lmbench.New(append(opts, extra...)...)
	}

	// First run: cancel once a third of the experiment groups have
	// landed in the journal.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	total := len(machines.Names()) * len(core.GroupExperiments(core.Experiments(), nil))
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
		if n == total/3 {
			cancel()
		}
	})
	if _, err := bench(lmbench.WithSink(counting)).Run(ctx); err == nil {
		t.Fatal("interrupted run reported success")
	}

	// Resumed run: WithJournal's create-or-resume semantics replay the
	// journaled units and execute only the remainder.
	rep, err := bench().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, rep.DB, "interrupt+resume")
}

// sinkFunc adapts a function to lmbench.EventSink.
type sinkFunc func(lmbench.Event)

func (f sinkFunc) Event(e lmbench.Event) { f(e) }
