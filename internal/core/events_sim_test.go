package core_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/results"
)

// TestFinishedEventCarriesSimCounters checks the SimStatser plumbing:
// a simulated machine's finished events carry the experiment's
// activity-counter delta, and the counters stay out of the results
// database (whose encoding is covered by the byte-identity guarantee).
func TestFinishedEventCarriesSimCounters(t *testing.T) {
	sink := &recorderSink{}
	s := &core.Suite{
		M:      simMachine(t, "Linux/i686"),
		Opts:   smallOpts(),
		Events: sink,
		Only:   map[string]bool{"figure1": true},
	}
	db := &results.DB{}
	if _, err := s.Run(context.Background(), db); err != nil {
		t.Fatal(err)
	}
	fin := sink.byKind(core.ExperimentFinished)
	if len(fin) != 1 {
		t.Fatalf("got %d finished events, want 1", len(fin))
	}
	sim := fin[0].Sim
	if sim == nil {
		t.Fatal("finished event has no sim counters")
	}
	// The exact deltas of simulating every load: a chase lap charged
	// without being simulated must move every counter, the fast-path
	// ones (mru_hits, index_hits) included, exactly as simulating it
	// would. Absent keys (writebacks, index_hits) are zero.
	want := map[string]int64{
		"l1_hits":      2893760,
		"l2_hits":      374784,
		"mem_accesses": 2326464,
		"mru_hits":     8557363,
		"tlb_misses":   32781,
	}
	if !reflect.DeepEqual(sim, want) {
		t.Errorf("sim counters = %v, want %v", sim, want)
	}
	for _, e := range db.Entries() {
		for k := range e.Attrs {
			if k == "mem_accesses" || k == "tlb_misses" || k == "mru_hits" || k == "index_hits" {
				t.Errorf("sim counter %q leaked into result attrs of %s", k, e.Benchmark)
			}
		}
	}
}

// TestStartedEventHasNoSimCounters pins the emission point: the delta
// belongs to the terminal finished event only.
func TestStartedEventHasNoSimCounters(t *testing.T) {
	sink := &recorderSink{}
	s := &core.Suite{
		M:      simMachine(t, "Linux/i686"),
		Opts:   smallOpts(),
		Events: sink,
		Only:   map[string]bool{"table7": true},
	}
	if _, err := s.Run(context.Background(), &results.DB{}); err != nil {
		t.Fatal(err)
	}
	for _, e := range sink.byKind(core.ExperimentStarted) {
		if e.Sim != nil {
			t.Errorf("started event carries sim counters: %v", e.Sim)
		}
	}
}
