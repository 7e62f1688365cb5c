package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"time"

	lmbench "repro"
	"repro/internal/stats"
)

// minSetups is how many times an untraced run constructs its machines.
// It is repeated in fresh processes (the DRAM-inversion memo lives per
// process) and reported as the median, so one slow build does not move
// setup_s. A traced run does not report setup_s and skips the repeats.
const minSetups = 3

// outcome is what a run's rounds measured and what its output check
// found.
type outcome struct {
	attempted, failed int
	mismatches        []string
	// samples holds one value per round (or per set-up) for each
	// end-to-end metric, plus the per-profile build times.
	samples map[string][]float64
	// rounds are the untraced child reports, for the layer metrics.
	rounds []childReport
	// want are the per-unit digests every round must reproduce.
	want map[string]string
	// units is the number of work units in one round.
	units int
}

func newOutcome() *outcome { return &outcome{samples: map[string][]float64{}} }

func (o *outcome) add(name string, v float64) { o.samples[name] = append(o.samples[name], v) }

// addSetup records one machine construction: its total and the
// per-profile build times behind machines.build_ms.
func (o *outcome) addSetup(r childReport) {
	o.add("build_s", r.SetupS)
	var sum, max float64
	for _, ms := range r.BuildMS {
		sum += ms
		if ms > max {
			max = ms
		}
	}
	o.add("machines.build_ms.sum", sum)
	o.add("machines.build_ms.max", max)
}

// topUpSetups runs set-up-only processes until an untraced run has
// minSetups machine constructions.
func (o *outcome) topUpSetups(c config) error {
	for !c.trace && len(o.samples["build_s"]) < minSetups {
		rep, err := spawn(c, "setup", false)
		if err != nil {
			return err
		}
		o.addSetup(rep)
	}
	return nil
}

// check records one output check over units work units.
func (o *outcome) check(label string, units int, bad []string) {
	o.attempted += units
	o.failed += len(bad)
	for _, b := range bad {
		o.mismatches = append(o.mismatches, label+": "+b)
	}
}

// fail records units work units lost to a failed round.
func (o *outcome) fail(label string, units int, err string) {
	o.attempted += units
	o.failed += units
	o.mismatches = append(o.mismatches, label+": "+err)
}

// med is the median of a sample set (0 when empty).
func (o *outcome) med(name string) float64 {
	v, err := stats.Median(o.samples[name])
	if err != nil {
		return 0
	}
	return v
}

// endToEnd are the untraced metrics: medians over the run's rounds.
func (o *outcome) endToEnd() map[string]metric {
	return map[string]metric{
		"wall_s":      {o.med("wall_s"), "s"},
		"setup_s":     {o.med("build_s") + o.med("fill_s"), "s"},
		"cpu_s":       {o.med("cpu_s"), "s"},
		"peak_rss_mb": {o.med("peak_rss_mb"), "MB"},
	}
}

// spawn runs one child step of this benchmark binary and returns its
// report.
func spawn(c config, kind string, traced bool) (childReport, error) {
	args := []string{"-child", kind, "-workload", c.workload,
		"-seed", strconv.FormatInt(c.seed, 10), "-work", c.work}
	if traced {
		args = append(args, "-traced")
	}
	var rep childReport
	err := runSelf(args, &rep)
	return rep, err
}

// runSelf runs this benchmark binary with args and decodes the last
// line it prints into v.
func runSelf(args []string, v any) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("child %s: %w", args[1], err)
	}
	if err := json.Unmarshal(lastLine(out), v); err != nil {
		return fmt.Errorf("child %s: %w", args[1], err)
	}
	return nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimSpace(b)
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// suiteWant returns the per-unit digests a suite workload must
// reproduce: the golden database restricted to the workload's units
// for the compiled profiles, the committed digests otherwise.
func suiteWant(w *workload, c config, golden *lmbench.DB) (map[string]string, error) {
	if w.committed {
		return committedDigests(c.workload)
	}
	names, _ := w.profiles()
	return unitDigests(golden, names, groupsFor(w.only))
}

// runSuite runs suite rounds in fresh processes until the run's time
// is spent, checks each round's database, and tops set-up up to
// minSetups with set-up-only processes.
func runSuite(w *workload, c config, golden *lmbench.DB) (*outcome, error) {
	want, err := suiteWant(w, c, golden)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	o.want, o.units = want, w.units()
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < c.seconds; i++ {
		rep, err := spawn(c, "round", false)
		if err != nil {
			return nil, err
		}
		o.addSetup(rep)
		if ok, err := o.checkRound(fmt.Sprintf("round %d", i+1), rep); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		o.add("wall_s", rep.WallS)
		o.add("cpu_s", rep.CPUS)
		o.add("peak_rss_mb", rep.PeakRSSMB)
		o.rounds = append(o.rounds, rep)
	}
	if err := o.topUpSetups(c); err != nil {
		return nil, err
	}
	if len(o.rounds) == 0 {
		return nil, errors.New("every round failed")
	}
	return o, nil
}

// warmArgs is the warm re-run command line: the developer loop of
// re-running the whole fast suite against a filled unit cache.
func warmArgs(cache, db string) []string {
	return []string{"-machine", "all-sim", "-fast", "-unit-cache", cache, "-unit-cache-readonly", "-out", db}
}

var cacheStatsRE = regexp.MustCompile(`unit-cache: hits=(\d+) misses=(\d+)`)

// rerun is one warm re-run of the lmbench CLI.
type rerun struct {
	execReport
	hits, misses int
	db           string
	err          error
}

// warmRerun runs the CLI once against the cache through the exec
// child step; extra arguments (a trace file) are appended.
func warmRerun(c config, i int, extra ...string) rerun {
	r := rerun{db: filepath.Join(c.work, fmt.Sprintf("rerun-%d.db", i))}
	args := append([]string{"-child", "exec", "--", c.lmbench}, warmArgs(filepath.Join(c.work, "cache"), r.db)...)
	if r.err = runSelf(append(args, extra...), &r.execReport); r.err != nil {
		return r
	}
	if r.Err != "" {
		r.err = fmt.Errorf("lmbench: %s: %s", r.Err, lastLine([]byte(r.Stderr)))
		return r
	}
	m := cacheStatsRE.FindStringSubmatch(r.Stderr)
	if m == nil {
		r.err = errors.New("lmbench printed no unit-cache statistics")
		return r
	}
	r.hits, _ = strconv.Atoi(m[1])
	r.misses, _ = strconv.Atoi(m[2])
	return r
}

// checkRerun checks one re-run's database and cache traffic; ok is
// false when the re-run failed outright.
func (o *outcome) checkRerun(label string, r rerun) (ok bool, err error) {
	if r.err != nil {
		o.fail(label, o.units, r.err.Error())
		return false, nil
	}
	bad, err := checkDB(r.db, o.want)
	if err != nil {
		return false, err
	}
	if r.misses > 0 {
		bad = append(bad, fmt.Sprintf("%d unit-cache misses", r.misses))
	}
	o.check(label, o.units, bad)
	return true, nil
}

// checkRound checks one suite round's database; ok is false when the
// round failed outright.
func (o *outcome) checkRound(label string, rep childReport) (ok bool, err error) {
	if rep.Err != "" {
		o.fail(label, o.units, rep.Err)
		return false, nil
	}
	bad, err := checkDB(rep.DB, o.want)
	if err != nil {
		return false, err
	}
	o.check(label, o.units, bad)
	return true, nil
}

// runWarm fills the unit cache through the API in set-up (the write
// side), then times fresh read-only CLI re-runs until the run's time is
// spent. Each re-run must answer every unit from the cache and
// reproduce the committed digests.
func runWarm(w *workload, c config) (*outcome, error) {
	if c.lmbench == "" {
		return nil, errors.New("warm-rerun needs -lmbench")
	}
	want, err := committedDigests(c.workload)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	o.want, o.units = want, w.units()

	fill, err := spawn(c, "fill", false)
	if err != nil {
		return nil, err
	}
	if ok, err := o.checkRound("fill", fill); err != nil || !ok {
		return nil, fmt.Errorf("cache fill failed: %v %s", err, fill.Err)
	}
	o.addSetup(fill)
	o.add("fill_s", fill.WallS)

	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < c.seconds; i++ {
		r := warmRerun(c, i)
		if ok, err := o.checkRerun(fmt.Sprintf("re-run %d", i+1), r); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		o.add("wall_s", r.WallS)
		o.add("cpu_s", r.CPUS)
		o.add("peak_rss_mb", r.PeakRSSMB)
	}
	if err := o.topUpSetups(c); err != nil {
		return nil, err
	}
	if len(o.samples["wall_s"]) == 0 {
		return nil, errors.New("every re-run failed")
	}
	return o, nil
}
