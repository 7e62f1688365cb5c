package main

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	lmbench "repro"
)

func loadGolden(t *testing.T) *lmbench.DB {
	t.Helper()
	db, err := loadDB("../results/simulated.db")
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestSummarizeUsesMedianAndQuartiles(t *testing.T) {
	got := summarize([]float64{4, 1, 100, 3, 2})
	want := summary{N: 5, Median: 3, Q1: 2, Q3: 4}
	if got != want {
		t.Errorf("summarize = %+v, want %+v (one outlier must not move the median)", got, want)
	}
	if got := summarize([]float64{1, 2, 3, 4}); got.Median != 2.5 || got.Q1 != 1.75 || got.Q3 != 3.25 {
		t.Errorf("even-sized summarize = %+v, want interpolated 2.5 / 1.75 / 3.25", got)
	}
	if got := summarize(nil); got != (summary{}) {
		t.Errorf("empty summarize = %+v, want zero", got)
	}
}

func TestSchedStats(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	span := func(name string, from, to float64) []event {
		return []event{
			{Kind: "machine_started", Time: at(from), Machine: name},
			{Kind: "machine_finished", Time: at(to), Machine: name, DurationNS: int64((to - from) * 1e9)},
		}
	}

	// Two workers, three machines: C starts when B frees its worker, so
	// the queue is empty from then on and the first worker to go idle
	// is A's, at 4s; the run ends at 5.2s.
	var evs []event
	evs = append(evs, span("A", 0, 4)...)
	evs = append(evs, span("B", 0, 2)...)
	evs = append(evs, span("C", 2.01, 5)...)
	busy, tail := schedStats(evs, t0, at(5.2), 2)
	if want := (4 + 2 + 2.99) / (5.2 * 2); math.Abs(busy-want) > 1e-9 {
		t.Errorf("parallel busy = %v, want %v", busy, want)
	}
	if math.Abs(tail-1.2) > 1e-9 {
		t.Errorf("parallel tail = %v, want 1.2", tail)
	}

	// One worker: the only worker goes idle after the last machine.
	evs = append(span("A", 0, 1), span("B", 1, 3)...)
	busy, tail = schedStats(evs, t0, at(3.05), 1)
	if want := 3 / 3.05; math.Abs(busy-want) > 1e-9 {
		t.Errorf("serial busy = %v, want %v", busy, want)
	}
	if math.Abs(tail-0.05) > 1e-9 {
		t.Errorf("serial tail = %v, want 0.05", tail)
	}
}

func TestGroupIndexPartitionsGolden(t *testing.T) {
	golden := loadGolden(t)
	all, err := unitDigests(golden, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	names := lmbench.SimMachineNames()
	mem, err := unitDigests(golden, names, groupsFor(paperMemIDs))
	if err != nil {
		t.Fatal(err)
	}
	rest, err := unitDigests(golden, names, groupsFor(paperBWCtxIDs()))
	if err != nil {
		t.Fatal(err)
	}
	if len(mem) != len(names) {
		t.Errorf("paper-mem has %d golden units, want one per profile (%d)", len(mem), len(names))
	}
	merged := map[string]string{}
	for _, part := range []map[string]string{mem, rest} {
		for u, d := range part {
			if _, dup := merged[u]; dup {
				t.Errorf("unit %s is in both paper workloads", u)
			}
			merged[u] = d
		}
	}
	if !reflect.DeepEqual(merged, all) {
		t.Errorf("paper-mem and paper-bw-ctx cover %d golden units, want all %d", len(merged), len(all))
	}
	if g := groupsFor(nil); len(g) != 14 {
		t.Errorf("suite has %d groups, want 14", len(g))
	}
}

// TestCheckNamesFlippedUnit flips one golden entry and expects the
// check to name exactly that machine × group.
func TestCheckNamesFlippedUnit(t *testing.T) {
	golden := loadGolden(t)
	names := lmbench.SimMachineNames()
	groups := groupsFor(paperMemIDs)
	want, err := unitDigests(golden, names, groups)
	if err != nil {
		t.Fatal(err)
	}
	flipped := &lmbench.DB{}
	done := false
	for _, e := range golden.Entries() {
		if !done && e.Machine == "HP K210" && e.Benchmark == "lat_mem_rd" {
			e.Series = slices.Clone(e.Series)
			e.Series[3].Y += 0.5
			done = true
		}
		if err := flipped.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	if !done {
		t.Fatal("no HP K210 lat_mem_rd entry in the golden database")
	}
	got, err := unitDigests(flipped, names, groups)
	if err != nil {
		t.Fatal(err)
	}
	bad := compareUnits(got, want)
	if len(bad) != 1 || bad[0] != "HP K210 × mem_hier: differs" {
		t.Errorf("mismatches = %q, want exactly the HP K210 × mem_hier unit", bad)
	}
	if bad := compareUnits(want, want); len(bad) != 0 {
		t.Errorf("identical digests mismatch: %q", bad)
	}
	delete(got, "SGI Indigo2 × mem_hier")
	got["Extra × mem_hier"] = "00"
	bad = compareUnits(got, want)
	for _, w := range []string{"Extra × mem_hier: unexpected", "SGI Indigo2 × mem_hier: missing"} {
		if !slices.Contains(bad, w) {
			t.Errorf("mismatches = %q, want %q among them", bad, w)
		}
	}
}

// TestSeedsGiveIdenticalDatabases runs the same suite slice with the
// machines in two seed orders, in parallel, and wants the same bytes.
func TestSeedsGiveIdenticalDatabases(t *testing.T) {
	names := lmbench.SimMachineNames()[:6]
	a, b := seedOrder(names, 1), seedOrder(names, 2)
	if slices.Equal(a, b) {
		t.Fatalf("seeds 1 and 2 give the same order %q", a)
	}
	encode := func(order []string) []byte {
		options := []lmbench.Option{
			lmbench.WithOptions(paperOptions()),
			lmbench.WithOnly("table7", "table8", "table9"),
			lmbench.WithParallel(2),
		}
		for _, n := range order {
			m, err := lmbench.NewSimMachine(n)
			if err != nil {
				t.Fatal(err)
			}
			options = append(options, lmbench.WithMachine(m))
		}
		rep, err := lmbench.New(options...).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.DB.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(encode(a), encode(b)) {
		t.Error("two workload seeds gave different databases")
	}
}

func TestCommittedDigests(t *testing.T) {
	for _, w := range []string{"catalog-parallel", "warm-rerun"} {
		d, err := committedDigests(w)
		if err != nil {
			t.Fatal(err)
		}
		if len(d) == 0 {
			t.Errorf("%s: no digests", w)
		}
	}
	if names, _ := catalogProfiles(); len(names) != 11 {
		t.Errorf("catalog-parallel has %d profiles, want 11", len(names))
	}
}
