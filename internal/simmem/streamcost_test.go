package simmem

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ptime"
	"repro/internal/sim"
)

// streamCase is one calibration-style stream: an optional dirty prime
// of the whole hierarchy, then a timed read or write stream.
type streamCase struct {
	cfg   Config
	mhz   float64
	width int
	prime bool
	write bool
	off   int64 // timed stream's offset past the prime
	bytes int64
}

// run builds a fresh hierarchy under DRAM timing d, replays the prime
// and returns the hierarchy, positioned before the timed stream, and
// the timed stream's address.
func (sc streamCase) run(t *testing.T, d DRAMConfig) (*Hierarchy, uint64) {
	t.Helper()
	cfg := sc.cfg
	cfg.DRAM = d
	h, err := New(sim.NewCPU(&sim.Clock{}, sim.CPUConfig{MHz: sc.mhz, IssueWidth: sc.width}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var cacheBytes int64
	for _, cc := range cfg.Caches {
		cacheBytes += cc.Size
	}
	base := h.Alloc(cacheBytes + sc.off + sc.bytes)
	if sc.prime {
		h.StreamWrite(base, cacheBytes)
	}
	return h, base + uint64(cacheBytes+sc.off)
}

// simulate times the stream on a fresh hierarchy under d.
func (sc streamCase) simulate(t *testing.T, d DRAMConfig) ptime.Duration {
	h, addr := sc.run(t, d)
	start := h.ClockHandle().Now()
	if sc.write {
		h.StreamWrite(addr, sc.bytes)
	} else {
		h.StreamRead(addr, sc.bytes)
	}
	return h.ClockHandle().Now() - start
}

func mbs(bytes int64, d ptime.Duration) float64 {
	return float64(bytes) / (1 << 20) / d.Seconds()
}

// TestStreamCostMatchesSimulation measures random streams once with
// MeasureStream and prices them under DRAM timings the measurement did
// not use: fills below and above the issue time, FillNS=0 (defaulting
// to LatencyNS) and WritebackNS=0 (defaulting to the fill). Every price
// must equal, to the picosecond, the clock delta of the same stream
// simulated on a fresh hierarchy with that timing, and so give the
// same bandwidth bits.
func TestStreamCostMatchesSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var fills, writebacks, below, above int
	for trial := 0; trial < 500; trial++ {
		sc := streamCase{
			cfg:   randSteadyConfig(rng),
			mhz:   float64(20 + rng.Intn(400)),
			width: 1 + rng.Intn(4),
			prime: rng.Intn(3) > 0,
			write: rng.Intn(2) == 0,
			off:   int64(rng.Intn(3) * 64),
			bytes: 1 + rng.Int63n(4096),
		}
		measured := DRAMConfig{LatencyNS: 10 + 200*rng.Float64(), FillNS: 200 * rng.Float64(), WritebackNS: 200 * rng.Float64()}
		h, addr := sc.run(t, measured)
		start := h.ClockHandle().Now()
		cost, err := h.MeasureStream(addr, sc.bytes, sc.write)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := cost.At(measured), h.ClockHandle().Now()-start; got != want {
			t.Fatalf("trial %d %+v: priced own timing %v, charged %v", trial, sc, got, want)
		}
		issue := cost.Issue.Nanoseconds()
		for _, d := range []DRAMConfig{
			{LatencyNS: 50, FillNS: issue * rng.Float64(), WritebackNS: 300 * rng.Float64()},
			{LatencyNS: 50, FillNS: issue * (1 + 3*rng.Float64()), WritebackNS: 300 * rng.Float64()},
			{LatencyNS: issue * 4 * rng.Float64(), WritebackNS: 300 * rng.Float64()},
			{LatencyNS: 50, FillNS: issue * 4 * rng.Float64()},
			{LatencyNS: issue * 4 * rng.Float64()},
		} {
			if ptime.FromNS(d.fill()) < cost.Issue {
				below++
			} else {
				above++
			}
			want := sc.simulate(t, d)
			got := cost.At(d)
			if got != want {
				t.Fatalf("trial %d %+v under %+v: priced %v, simulated %v (cost %+v)", trial, sc, d, got, want, cost)
			}
			if b, w := math.Float64bits(mbs(sc.bytes, got)), math.Float64bits(mbs(sc.bytes, want)); b != w {
				t.Fatalf("trial %d: bandwidth bits %#x, want %#x", trial, b, w)
			}
		}
		if cost.Fills > 0 {
			fills++
		}
		if cost.Writebacks > 0 {
			writebacks++
		}
	}
	t.Logf("%d streams with fills, %d with writebacks; %d timings below issue, %d above", fills, writebacks, below, above)
	// The draw must exercise every term of the formula.
	if fills < 50 || writebacks < 20 || below < 100 || above < 100 {
		t.Fatalf("weak coverage: %d streams with fills, %d with writebacks, %d timings below issue, %d above",
			fills, writebacks, below, above)
	}
}

// TestMeasureStreamRejects checks that hierarchies whose stores retire
// to memory inside the per-chunk overlap are refused before anything
// runs.
func TestMeasureStreamRejects(t *testing.T) {
	for _, mutate := range []func(*Config){
		func(c *Config) { c.NoWriteAllocate = true },
		func(c *Config) { c.HWCopy = true },
	} {
		for _, write := range []bool{false, true} {
			h, clk := testHierarchy(t, mutate)
			base := h.Alloc(1 << 16)
			if _, err := h.MeasureStream(base, 1<<16, write); err == nil {
				t.Errorf("config %+v write=%v: accepted", h.Config(), write)
			}
			if clk.Now() != 0 || h.Stats().MemAccesses != 0 {
				t.Errorf("config %+v write=%v: rejected call still streamed", h.Config(), write)
			}
		}
	}
}
