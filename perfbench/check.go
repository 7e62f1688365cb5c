package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	lmbench "repro"
	"repro/internal/results"
)

// The output check works per work unit (machine × experiment group),
// the granularity the journal, the unit cache and the fleet share. A
// unit's digest is the SHA-256 of the canonical encoding of the
// database holding just that unit's entries, so a mismatch names the
// unit that differs instead of "the database differs".

//go:embed digests.json
var digestsJSON []byte

// committedDigests returns the per-unit digests recorded for a
// workload whose output has no committed golden database.
func committedDigests(workload string) (map[string]string, error) {
	var all map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	d, ok := all[workload]
	if !ok {
		return nil, fmt.Errorf("digests.json has no %s digests", workload)
	}
	return d, nil
}

// unit is one work unit: a machine × experiment group.
type unit struct{ machine, group string }

// String names the unit in mismatch reports and digest files.
func (u unit) String() string { return u.machine + " × " + u.group }

// groupIndex maps result benchmarks to experiment groups: each
// experiment declares the benchmark keys (or key prefixes) it
// produces, and experiments sharing a run key form one group.
type groupIndex struct {
	prefixes []string
	group    map[string]string
}

func newGroupIndex() *groupIndex {
	g := &groupIndex{group: map[string]string{}}
	for _, e := range lmbench.Experiments() {
		key := e.RunKey
		if key == "" {
			key = e.ID
		}
		for _, b := range e.Benchmarks {
			g.prefixes = append(g.prefixes, b)
			g.group[b] = key
		}
	}
	return g
}

// of returns the group that produces benchmark: the one declaring the
// longest key that equals or prefixes it.
func (g *groupIndex) of(benchmark string) (string, bool) {
	best := ""
	for _, p := range g.prefixes {
		if strings.HasPrefix(benchmark, p) && len(p) > len(best) {
			best = p
		}
	}
	if best == "" {
		return "", false
	}
	return g.group[best], true
}

// groupsFor returns the group keys the experiment IDs run, in suite
// order; nil ids selects every paper experiment.
func groupsFor(ids []string) []string {
	want := map[string]bool{}
	for _, id := range ids {
		want[id] = true
	}
	var keys []string
	seen := map[string]bool{}
	for _, e := range lmbench.Experiments() {
		if ids != nil && !want[e.ID] {
			continue
		}
		key := e.RunKey
		if key == "" {
			key = e.ID
		}
		if !seen[key] {
			seen[key] = true
			keys = append(keys, key)
		}
	}
	return keys
}

// unitEntries splits db into its work units' entries.
func unitEntries(db *lmbench.DB) (map[unit][]lmbench.Entry, error) {
	idx := newGroupIndex()
	out := map[unit][]lmbench.Entry{}
	for _, e := range db.Entries() {
		g, ok := idx.of(e.Benchmark)
		if !ok {
			return nil, fmt.Errorf("benchmark %q belongs to no experiment", e.Benchmark)
		}
		u := unit{e.Machine, g}
		out[u] = append(out[u], e)
	}
	return out, nil
}

// unitDigests splits db into work units and digests each. Only the
// named machines and groups are kept (nil keeps all), which restricts
// the golden database to one workload's entries.
func unitDigests(db *lmbench.DB, machines, groups []string) (map[string]string, error) {
	byUnit, err := unitEntries(db)
	if err != nil {
		return nil, err
	}
	keepM, keepG := setOf(machines), setOf(groups)
	out := map[string]string{}
	for u, entries := range byUnit {
		if (keepM != nil && !keepM[u.machine]) || (keepG != nil && !keepG[u.group]) {
			continue
		}
		part := &lmbench.DB{}
		for _, e := range entries {
			if err := part.Add(e); err != nil {
				return nil, err
			}
		}
		var buf bytes.Buffer
		if err := part.Encode(&buf); err != nil {
			return nil, err
		}
		sum := sha256.Sum256(buf.Bytes())
		out[u.String()] = hex.EncodeToString(sum[:])
	}
	return out, nil
}

// compareUnits returns one line per unit whose digest differs, is
// missing or is unexpected, in unit order.
func compareUnits(got, want map[string]string) []string {
	var bad []string
	for u, w := range want {
		switch g, ok := got[u]; {
		case !ok:
			bad = append(bad, u+": missing")
		case g != w:
			bad = append(bad, u+": differs")
		}
	}
	for u := range got {
		if _, ok := want[u]; !ok {
			bad = append(bad, u+": unexpected")
		}
	}
	sort.Strings(bad)
	return bad
}

// checkDB compares the database at path with the wanted unit digests.
func checkDB(path string, want map[string]string) ([]string, error) {
	db, err := loadDB(path)
	if err != nil {
		return nil, err
	}
	got, err := unitDigests(db, nil, nil)
	if err != nil {
		return nil, err
	}
	return compareUnits(got, want), nil
}

func setOf(xs []string) map[string]bool {
	if xs == nil {
		return nil
	}
	m := make(map[string]bool, len(xs))
	for _, x := range xs {
		m[x] = true
	}
	return m
}

func loadDB(path string) (*lmbench.DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return results.Decode(f)
}

func writeDB(path string, db *lmbench.DB) error {
	var buf bytes.Buffer
	if err := db.Encode(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// generateDigests records the per-unit digests of the two workloads
// that have no committed golden database, each computed the plain way
// at the current commit: catalog-parallel's suite run serially, and
// warm-rerun's fast suite through the CLI with no cache at all. The
// benchmark then checks that the parallel run and the cached re-runs
// reproduce them.
func generateDigests(path, lmbin, work string) error {
	if lmbin == "" {
		return errors.New("-gen-digests needs -lmbench")
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	names, cat := catalogProfiles()
	options := []lmbench.Option{lmbench.WithOptions(paperOptions())}
	for _, n := range names {
		m, err := lmbench.NewSimMachineIn(cat, n)
		if err != nil {
			return err
		}
		options = append(options, lmbench.WithMachine(m))
	}
	rep, err := lmbench.New(options...).Run(context.Background())
	if err != nil {
		return err
	}
	catalog, err := unitDigests(rep.DB, nil, nil)
	if err != nil {
		return err
	}

	db := filepath.Join(work, "gen-fast.db")
	cmd := exec.Command(lmbin, "-machine", "all-sim", "-fast", "-quiet", "-out", db)
	cmd.Stdout, cmd.Stderr = io.Discard, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("lmbench: %w", err)
	}
	fast, err := loadDB(db)
	if err != nil {
		return err
	}
	warm, err := unitDigests(fast, nil, nil)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(map[string]map[string]string{
		"catalog-parallel": catalog,
		"warm-rerun":       warm,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
