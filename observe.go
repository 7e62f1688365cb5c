package lmbench

import (
	"io"

	"repro/internal/core"
	"repro/internal/obs"
)

// This file re-exports the observability layer so binaries can wire
// metrics, progress, traces and the live server from the facade alone.
// Everything here is out-of-band: derived from the event stream and
// harness probe callbacks, never touching a timed interval or the
// results database.

// Registry is a process-local metric registry with a Prometheus text
// exposition; see NewRegistry.
type Registry = obs.Registry

// MetricsSink aggregates run events into lmbench_* metric families.
type MetricsSink = obs.MetricsSink

// FleetMetrics aggregates fleet scheduling activity into
// lmbench_fleet_* metric families; it satisfies the coordinator's
// Observer.
type FleetMetrics = obs.FleetMetrics

// CacheMetrics aggregates unit-cache traffic into lmbench_unit_cache_*
// metric families; it satisfies CacheObserver.
type CacheMetrics = obs.CacheMetrics

// Progress tracks per-machine completion and ETA for the live
// /progress endpoint.
type Progress = obs.Progress

// TraceSink turns the event stream into a span trace, one JSON line
// per completed attempt; Close emits the root span.
type TraceSink = obs.TraceSink

// Server exposes /metrics, /progress and /healthz over HTTP.
type Server = obs.Server

// NewRegistry returns an empty metric registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// NewMetricsSink registers the suite's metric families in reg and
// returns the event sink feeding them.
func NewMetricsSink(reg *Registry) *MetricsSink { return obs.NewMetricsSink(reg) }

// NewFleetMetrics registers the fleet metric families in reg and
// returns the coordinator observer feeding them.
func NewFleetMetrics(reg *Registry) *FleetMetrics { return obs.NewFleetMetrics(reg) }

// NewCacheMetrics registers the unit-cache metric families in reg and
// returns the cache observer feeding them; pass it to
// WithUnitCacheObserver.
func NewCacheMetrics(reg *Registry) *CacheMetrics { return obs.NewCacheMetrics(reg) }

// NewProgress returns a progress tracker; feed it events via WithSink
// and serve it with Server.
func NewProgress() *Progress { return obs.NewProgress() }

// NewTraceSink writes span lines to w.
func NewTraceSink(w io.Writer) *TraceSink { return obs.NewTraceSink(w) }

// RegisterHarness exports the global harness counters (batches,
// spins, clock reads) into reg.
func RegisterHarness(reg *Registry) { obs.RegisterHarness(reg) }

// RegisterSweepPlanner exports the adaptive sweep planner's decision
// counters (grid points measured vs skipped) into reg. Both stay zero
// unless a run uses SweepAdaptive.
func RegisterSweepPlanner(reg *Registry) { obs.RegisterSweepPlanner(reg) }

// RegisterJournal exports journal activity into reg.
func RegisterJournal(reg *Registry, jw *core.Journal) { obs.RegisterJournal(reg, jw) }

// RegisterFaults exports fault-injection statistics into reg; stats
// reports cumulative counts.
func RegisterFaults(reg *Registry, stats func() (calls, errors, stalls, spikes int64)) {
	obs.RegisterFaults(reg, stats)
}
