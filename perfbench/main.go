// Command perfbench is the repository benchmark: four workloads over
// the simulator, the scheduler, the unit cache and machine set-up,
// timed end to end from outside and, on a traced run, layer by layer.
// See README.md for the workloads, the metrics and how to run it.
//
// It is started through run.sh, which builds it and the lmbench CLI
// from the checkout's sources:
//
//	bash perfbench/run.sh --workload paper-mem --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the result object the harness
// reads; the lines before it are the run record (host header, host
// reference timings, per-round samples and any output mismatches).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(sortedKeys(workloads), ", "))
		seed     = flag.Int64("seed", 1, "workload seed; it permutes machine order and never changes output bytes")
		seconds  = flag.Float64("seconds", 10, "measure for this long: rounds start until it has elapsed")
		trace    = flag.Int("trace", 0, "0 reports end-to-end metrics; 1 adds a traced round and the layer probes and reports per-layer metrics")
		root     = flag.String("root", ".", "repository checkout the benchmark reads results/ from")
		lmbin    = flag.String("lmbench", "", "lmbench CLI built from the same checkout (warm-rerun)")
		work     = flag.String("work", ".bench_build/work", "scratch directory for databases, caches and traces")
		child    = flag.String("child", "", "internal: run one child step (setup, round, fill, warm, exec) and print its JSON report")
		traced   = flag.Bool("traced", false, "internal: attach the JSONL and trace sinks to a child round")
		gen      = flag.String("gen-digests", "", "run catalog-parallel and warm-rerun from scratch, serially, and write their per-unit digests to this file")
	)
	flag.Parse()

	var err error
	switch {
	case *child == "exec":
		err = runExec(flag.Args())
	case *child != "":
		err = runChild(*child, *workload, *seed, *work, *traced)
	case *gen != "":
		err = generateDigests(*gen, *lmbin, *work)
	default:
		err = drive(config{
			workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
			root: *root, lmbench: *lmbin, work: *work,
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string
	lmbench  string
	work     string
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// emit prints one run-record line: a JSON object with a single key.
func emit(key string, v any) {
	b, err := json.Marshal(map[string]any{key: v})
	if err != nil {
		panic(err)
	}
	fmt.Println(string(b))
}

// drive runs one benchmark invocation and prints the run record and
// the result line.
func drive(c config) error {
	w, ok := workloads[c.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", c.workload, strings.Join(sortedKeys(workloads), ", "))
	}
	if c.seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	golden, err := loadDB(c.root + "/results/simulated.db")
	if err != nil {
		return fmt.Errorf("golden database: %w", err)
	}
	if err := os.MkdirAll(c.work, 0o755); err != nil {
		return err
	}
	run, err := os.MkdirTemp(c.work, c.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(run)
	c.work = run

	emit("header", hostHeader(c))
	refBefore := hostRef()
	var out *outcome
	if w.warm {
		out, err = runWarm(w, c)
	} else {
		out, err = runSuite(w, c, golden)
	}
	if err != nil {
		return err
	}
	var layers map[string]metric
	if c.trace {
		log := &spanLog{t0: time.Now()}
		if w.warm {
			layers, err = warmLayers(c, golden, out, log)
		} else {
			layers, err = suiteLayers(w, c, golden, out, log)
		}
		if err != nil {
			return err
		}
		emit("spans", log.spans)
	}
	refAfter := hostRef()
	emit("host", map[string]float64{"ref_ms.before": refBefore, "ref_ms.after": refAfter})
	for _, m := range out.mismatches {
		emit("mismatch", m)
	}
	sums := map[string]summary{}
	for k, xs := range out.samples {
		sums[k] = summarize(xs)
	}
	emit("samples", sums)
	if out.attempted < 1 {
		return errors.New("no units attempted")
	}
	emit("failed_frac", metric{float64(out.failed) / float64(out.attempted), "fraction"})

	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.endToEnd(),
	}
	if c.trace {
		res.Metrics = layers
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
