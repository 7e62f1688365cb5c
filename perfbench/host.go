package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// hostHeader is the run record's header: what the numbers were
// measured on and which code produced them.
func hostHeader(c config) map[string]any {
	return map[string]any{
		"workload":   c.workload,
		"seed":       c.seed,
		"seconds":    c.seconds,
		"trace":      c.trace,
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     commit(c.root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit identifies the code: the git HEAD when the checkout is a git
// repository, else "tree:" and a SHA-256 over the Go sources and
// module files, which identifies an exported tree just as well.
func commit(root string) string {
	// Ask git only about a checkout of its own: in an exported tree,
	// git would report whatever repository encloses it.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		h.Write([]byte(rel + "\x00"))
		h.Write(b)
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// hostRef times a fixed pure-Go loop, the host-speed reference recorded
// before and after each run so drift in the host shows beside every
// number. The loop has a throughput-bound ALU part (four independent
// xorshift lanes, which a busy sibling hyperthread slows) and a
// latency-bound memory part (a dependent walk of a 4 MB random cycle,
// larger than a core's L2, so it slows when the shared L3 is
// contended). It reports the median of five repetitions, in ms.
func hostRef() float64 {
	refOnce.Do(func() {
		// Sattolo's algorithm: a single cycle through every slot.
		refCycle = make([]uint32, 1<<20)
		for i := range refCycle {
			refCycle[i] = uint32(i)
		}
		r := rand.New(rand.NewSource(1))
		for i := len(refCycle) - 1; i > 0; i-- {
			j := r.Intn(i)
			refCycle[i], refCycle[j] = refCycle[j], refCycle[i]
		}
	})
	var times []float64
	for r := 0; r < 5; r++ {
		start := time.Now()
		refSink += refLoop()
		times = append(times, float64(time.Since(start))/float64(time.Millisecond))
	}
	return median(times)
}

var (
	refOnce  sync.Once
	refCycle []uint32
	// refSink keeps the reference loop's result live.
	refSink uint64
)

func refLoop() uint64 {
	x := [4]uint64{1, 2, 3, 4}
	for i := 0; i < 2_000_000; i++ {
		for l := range x {
			x[l] ^= x[l] << 13
			x[l] ^= x[l] >> 7
			x[l] ^= x[l] << 17
		}
	}
	p := uint32(0)
	for i := 0; i < 300_000; i++ {
		p = refCycle[p]
	}
	return x[0] + x[1] + x[2] + x[3] + uint64(p)
}
