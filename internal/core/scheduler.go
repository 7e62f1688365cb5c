package core

// This file is the suite scheduler: a worker pool that drives the
// benchmark suite over many machines at once. Simulated machines carry
// their own virtual clocks and isolated state, so whole-machine runs
// are embarrassingly parallel; machines that measure real wall time
// (the host backend) are serialized behind the package timing mutex so
// no concurrent experiment perturbs a live measurement.
//
// Determinism: each machine's entries are collected into a private
// database and merged into the caller's database in machine order
// after all workers drain, so a parallel run encodes byte-identically
// to a serial one.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/results"
)

// Runner schedules suite runs across several machines.
type Runner struct {
	// Machines are the benchmark targets, in the order their results
	// are merged.
	Machines []Machine
	// Opts applies to every machine.
	Opts Options
	// Parallel is the worker-pool size; values below 1 mean serial.
	// Wall-clock machines are additionally serialized against each
	// other regardless of pool size.
	Parallel int
	// Events receives the combined event stream of all machines; nil
	// discards it. Sinks must be concurrency-safe (the provided ones
	// are).
	Events EventSink
	// Only, Extended, Experiments, Timeout, Retries, RetryBackoff,
	// MaxRSD, QualityRetries, Journal and Cache are forwarded to each
	// machine's Suite; see Suite. The journal and the unit cache are
	// concurrency-safe, so parallel machines interleave records freely;
	// replay and cache lookup are keyed by (machine, group) and immune
	// to that interleaving.
	Only           map[string]bool
	Extended       bool
	Experiments    []Experiment
	Timeout        time.Duration
	Retries        int
	RetryBackoff   time.Duration
	MaxRSD         float64
	QualityRetries int
	Journal        *Journal
	Cache          UnitCache
}

// machineRun is one worker's outcome.
type machineRun struct {
	db      *results.DB
	skipped []string
	dur     time.Duration
	err     error
}

// Run executes the suite on every machine and merges all entries into
// db. The returned map carries each machine's skipped-experiment list
// keyed by machine name. On failure the first error in machine order
// is returned, wrapped with the machine's name; entries from machines
// ordered before the failure — and the failing machine's completed
// experiments — are still merged, matching serial semantics.
func (r *Runner) Run(ctx context.Context, db *results.DB) (map[string][]string, error) {
	if len(r.Machines) == 0 {
		return map[string][]string{}, nil
	}
	workers := r.Parallel
	if workers < 1 {
		workers = 1
	}
	if workers > len(r.Machines) {
		workers = len(r.Machines)
	}
	sink := sinkOrDiscard(r.Events)

	// A failure cancels the machines still running; the per-machine
	// results collected so far survive for the deterministic merge.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	runs := make([]machineRun, len(r.Machines))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				runs[i] = r.runMachine(runCtx, sink, r.Machines[i])
				if runs[i].err != nil {
					cancel()
				}
			}
		}()
	}
	for i := range r.Machines {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	skipped := make(map[string][]string, len(r.Machines))
	var firstErr, firstCancel error
	for i, m := range r.Machines {
		res := runs[i]
		if res.db != nil {
			db.Merge(res.db)
		}
		if len(res.skipped) > 0 {
			skipped[m.Name()] = res.skipped
		}
		if res.err == nil {
			continue
		}
		wrapped := fmt.Errorf("%s: %w", m.Name(), res.err)
		// A worker cancelled by another worker's failure reports the
		// pool cancellation; prefer the root-cause error when the
		// caller's own context is still live.
		if errors.Is(res.err, context.Canceled) && ctx.Err() == nil {
			if firstCancel == nil {
				firstCancel = wrapped
			}
		} else if firstErr == nil {
			firstErr = wrapped
		}
	}
	if firstErr == nil {
		firstErr = firstCancel
	}
	if firstErr == nil && ctx.Err() != nil {
		firstErr = ctx.Err()
	}
	return skipped, firstErr
}

// runMachine drives one machine's full suite into a private database.
func (r *Runner) runMachine(ctx context.Context, sink EventSink, m Machine) machineRun {
	sink.Event(Event{Kind: MachineStarted, Time: time.Now(), Machine: m.Name()})
	start := time.Now()
	s := &Suite{
		M: m, Opts: r.Opts, Events: sink,
		Only: r.Only, Extended: r.Extended, Experiments: r.Experiments,
		Timeout: r.Timeout, Retries: r.Retries, RetryBackoff: r.RetryBackoff,
		MaxRSD: r.MaxRSD, QualityRetries: r.QualityRetries,
		Journal: r.Journal, Cache: r.Cache,
	}
	sub := &results.DB{}
	skipped, err := s.Run(ctx, sub)
	res := machineRun{db: sub, skipped: skipped, dur: time.Since(start), err: err}
	done := Event{Kind: MachineFinished, Time: time.Now(), Machine: m.Name(), Duration: res.dur}
	if err != nil {
		done.Err = err.Error()
	}
	sink.Event(done)
	return res
}
