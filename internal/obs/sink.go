package obs

import (
	"repro/internal/core"
	"repro/internal/ptime"
	"repro/internal/timing"
)

// Metric names exported by MetricsSink. The per-machine families carry
// a machine label; harness- and sample-level families are global.
// README's "Observability" section documents the full catalog.
const (
	metricStarted   = "lmbench_experiments_started_total"
	metricFinished  = "lmbench_experiments_finished_total"
	metricRetried   = "lmbench_experiments_retried_total"
	metricSkipped   = "lmbench_experiments_skipped_total"
	metricFailed    = "lmbench_experiments_failed_total"
	metricReplayed  = "lmbench_experiments_replayed_total"
	metricCached    = "lmbench_experiments_cached_total"
	metricQuality   = "lmbench_quality_rejects_total"
	metricEntries   = "lmbench_result_entries_total"
	metricRunning   = "lmbench_experiments_running"
	metricDuration  = "lmbench_experiment_duration_seconds"
	metricSim       = "lmbench_sim_"
	metricBatches   = "lmbench_harness_batches_total"
	metricBatchSecs = "lmbench_harness_batch_span_seconds"
)

// MetricsSink aggregates the suite's event stream and harness probes
// into a Registry. It implements core.EventSink and core.AttemptProber
// and is safe for concurrent use by parallel machine runs.
//
// Everything here is out-of-band: events fire between experiments, and
// probe callbacks fire between the harness's clock readings — never
// inside a timed interval (see timing.Probe). On simulated machines
// the batch-span observations are of *virtual* time, so the histogram
// doubles as a view of what the simulator charged.
type MetricsSink struct {
	reg *Registry

	started, finished, retried *CounterVec
	skipped, failed, replayed  *CounterVec
	cached                     *CounterVec
	quality, entries           *CounterVec
	running                    *GaugeVec
	duration                   *HistogramVec
	timedBatches, calibBatches *Counter
	batchSpan                  *Histogram
}

// NewMetricsSink registers the suite's metric families in reg and
// returns the sink feeding them.
func NewMetricsSink(reg *Registry) *MetricsSink {
	durBounds := ExpBuckets(0.001, 4, 12)  // 1ms .. ~4200s
	spanBounds := ExpBuckets(1e-6, 10, 10) // 1µs .. ~2.8h of (possibly virtual) clock time
	return &MetricsSink{
		reg:      reg,
		started:  reg.CounterVec(metricStarted, "Experiment attempts started.", "machine"),
		finished: reg.CounterVec(metricFinished, "Experiments finished successfully.", "machine"),
		retried:  reg.CounterVec(metricRetried, "Experiment attempts abandoned and retried.", "machine"),
		skipped:  reg.CounterVec(metricSkipped, "Experiments skipped as unsupported.", "machine"),
		failed:   reg.CounterVec(metricFailed, "Experiments failed for good.", "machine"),
		replayed: reg.CounterVec(metricReplayed, "Experiments replayed from a resume journal.", "machine"),
		cached:   reg.CounterVec(metricCached, "Experiments restored from the unit cache.", "machine"),
		quality:  reg.CounterVec(metricQuality, "Measurements rejected by the quality gate and re-measured.", "machine"),
		entries:  reg.CounterVec(metricEntries, "Result-database entries produced.", "machine"),
		running:  reg.GaugeVec(metricRunning, "Experiment attempts currently in flight.", "machine"),
		duration: reg.HistogramVec(metricDuration,
			"Wall-clock duration of finished experiment attempts.", "machine", durBounds),
		timedBatches: reg.Counter(metricBatches,
			"Timed measurement batches the harness completed."),
		calibBatches: reg.Counter("lmbench_harness_calibration_batches_total",
			"Auto-scaling (untimed) batches the harness completed."),
		batchSpan: reg.Histogram(metricBatchSecs,
			"Per-batch elapsed time by the harness clock (virtual on simulated machines).", spanBounds),
	}
}

// Event implements core.EventSink.
func (s *MetricsSink) Event(e core.Event) {
	switch e.Kind {
	case core.ExperimentStarted:
		s.started.With(e.Machine).Inc()
		s.running.With(e.Machine).Add(1)
	case core.ExperimentFinished:
		s.finished.With(e.Machine).Inc()
		s.running.With(e.Machine).Add(-1)
		s.entries.With(e.Machine).Add(int64(e.Entries))
		s.duration.With(e.Machine).Observe(e.Duration.Seconds())
		for key, delta := range e.Sim {
			s.reg.CounterVec(metricSim+key+"_total",
				"Simulator activity counter "+key+".", "machine").With(e.Machine).Add(delta)
		}
	case core.ExperimentRetried:
		s.retried.With(e.Machine).Inc()
		s.running.With(e.Machine).Add(-1)
	case core.ExperimentSkipped:
		s.skipped.With(e.Machine).Inc()
		s.running.With(e.Machine).Add(-1)
	case core.ExperimentFailed:
		s.failed.With(e.Machine).Inc()
		s.running.With(e.Machine).Add(-1)
	case core.ExperimentQuality:
		s.quality.With(e.Machine).Inc()
		s.running.With(e.Machine).Add(-1)
		s.duration.With(e.Machine).Observe(e.Duration.Seconds())
	case core.ExperimentReplayed:
		s.replayed.With(e.Machine).Inc()
		s.entries.With(e.Machine).Add(int64(e.Entries))
	case core.ExperimentCached:
		s.cached.With(e.Machine).Inc()
		s.entries.With(e.Machine).Add(int64(e.Entries))
	}
}

// AttemptProbe implements core.AttemptProber: every attempt feeds the
// harness batch counters. The probe is the sink itself — counters are
// atomic, so no per-attempt state is needed.
func (s *MetricsSink) AttemptProbe(machine, experiment string, attempt int) timing.Probe {
	return (*metricsProbe)(s)
}

// metricsProbe is MetricsSink's timing.Probe face, a separate type only
// so the Probe methods don't clutter the sink's public API surface.
type metricsProbe MetricsSink

func (p *metricsProbe) Calibrated(n int64, resolution ptime.Duration) {}

func (p *metricsProbe) Sample(elapsed ptime.Duration, n int64, timed bool) {
	if timed {
		p.timedBatches.Inc()
	} else {
		p.calibBatches.Inc()
	}
	p.batchSpan.Observe(elapsed.Seconds())
}

// RegisterHarness exports the timing package's process-global harness
// counters (BenchLoops completed, resolution estimates, the latest
// resolution) into reg at scrape time.
func RegisterHarness(reg *Registry) {
	reg.CounterFunc("lmbench_harness_benchloops_total",
		"Completed BenchLoop measurements.", func() float64 {
			return float64(timing.ReadHarnessStats().BenchLoops)
		})
	reg.CounterFunc("lmbench_harness_resolution_estimates_total",
		"Clock-resolution estimations performed.", func() float64 {
			return float64(timing.ReadHarnessStats().ResolutionEstimates)
		})
	reg.GaugeFunc("lmbench_harness_clock_resolution_seconds",
		"Most recent clock-resolution estimate.", func() float64 {
			return timing.ReadHarnessStats().LastResolution.Seconds()
		})
}

// RegisterSweepPlanner exports the adaptive sweep planner's
// process-global decision counters (core.ReadSweepStats): grid points
// actually measured and grid points skipped (filled by interpolation).
// Exhaustive sweeps touch neither, so both families stay zero unless
// a run uses -sweep adaptive.
func RegisterSweepPlanner(reg *Registry) {
	reg.CounterFunc("lmbench_sweep_points_measured_total",
		"Sweep grid points measured by the adaptive planner.", func() float64 {
			m, _ := core.ReadSweepStats()
			return float64(m)
		})
	reg.CounterFunc("lmbench_sweep_points_skipped_total",
		"Sweep grid points skipped (interpolated) by the adaptive planner.", func() float64 {
			_, s := core.ReadSweepStats()
			return float64(s)
		})
}

// RegisterJournal exports a journal's durable byte counter.
func RegisterJournal(reg *Registry, jw *core.Journal) {
	reg.CounterFunc("lmbench_journal_bytes_total",
		"Bytes of journal records durably written.", func() float64 {
			return float64(jw.BytesWritten())
		})
}

// RegisterPublishRetries exports the publish retry total. count is
// called at scrape time and returns the process-global count of
// publish attempts retried after a transport failure (see
// store.PublishRetries); taking a closure keeps obs independent of the
// store package.
func RegisterPublishRetries(reg *Registry, count func() int64) {
	reg.CounterFunc("lmbench_publish_retries_total",
		"Publish attempts retried after a transport failure.", func() float64 {
			return float64(count())
		})
}

// RegisterFaults exports chaos-run fault totals. stats is called at
// scrape time and returns the aggregate counts across every wrapped
// machine; taking a closure keeps obs independent of the faults
// package.
func RegisterFaults(reg *Registry, stats func() (calls, errors, stalls, spikes int64)) {
	read := func(pick func(c, e, s, k int64) int64) func() float64 {
		return func() float64 { return float64(pick(stats())) }
	}
	reg.CounterFunc("lmbench_fault_calls_total",
		"Primitive calls seen by the fault injector.",
		read(func(c, _, _, _ int64) int64 { return c }))
	reg.CounterFunc("lmbench_fault_errors_total",
		"Injected primitive errors.",
		read(func(_, e, _, _ int64) int64 { return e }))
	reg.CounterFunc("lmbench_fault_stalls_total",
		"Injected stalls.",
		read(func(_, _, s, _ int64) int64 { return s }))
	reg.CounterFunc("lmbench_fault_spikes_total",
		"Injected latency spikes.",
		read(func(_, _, _, k int64) int64 { return k }))
}
