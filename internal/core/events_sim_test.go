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

// TestFinishedEventSimCountersBandwidthAndCtx pins the exact
// counter deltas of the bandwidth, file-reread, IPC and context-switch
// groups, recorded by simulating every pass. Repeated passes charged
// from the steady-state pass memo must move every counter exactly as
// simulating them would.
func TestFinishedEventSimCountersBandwidthAndCtx(t *testing.T) {
	for _, tc := range []struct {
		group string
		want  map[string]int64
	}{
		{"table2", map[string]int64{
			"mem_accesses": 786432,
			"tlb_misses":   6144,
			"writebacks":   385024,
		}},
		{"table5", map[string]int64{
			"l2_hits":      260096,
			"mem_accesses": 264192,
			"mru_hits":     131967,
			"tlb_misses":   2064,
			"writebacks":   2048,
		}},
		{"table3", map[string]int64{
			"l2_hits":      56576,
			"mem_accesses": 41728,
			"mru_hits":     516,
			"tlb_misses":   326,
			"writebacks":   17152,
		}},
		{"figure2", map[string]int64{
			"l1_hits":      586,
			"l2_hits":      33394,
			"mem_accesses": 28172,
			"mru_hits":     10585,
			"tlb_misses":   232,
			"writebacks":   9,
		}},
	} {
		t.Run(tc.group, func(t *testing.T) {
			sink := &recorderSink{}
			s := &core.Suite{
				M:      simMachine(t, "Linux/i686"),
				Opts:   smallOpts(),
				Events: sink,
				Only:   map[string]bool{tc.group: true},
			}
			if _, err := s.Run(context.Background(), &results.DB{}); err != nil {
				t.Fatal(err)
			}
			fin := sink.byKind(core.ExperimentFinished)
			if len(fin) != 1 {
				t.Fatalf("got %d finished events, want 1", len(fin))
			}
			if got := fin[0].Sim; !reflect.DeepEqual(got, tc.want) {
				t.Errorf("sim counters = %v, want %v", got, tc.want)
			}
		})
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
