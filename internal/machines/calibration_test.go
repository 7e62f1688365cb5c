package machines

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
	"repro/internal/simmem"
)

// dramPins holds the float64 bits of the DRAM timing Build derives for
// every shipped profile. They were recorded from the bisect-by-
// simulation calibration (one fresh scratch hierarchy per probe), so a
// calibration that prices probes differently must land on the very
// same bits.
var dramPins = []struct {
	name            string
	fill, writeback uint64
}{
	{"DEC Alpha@150", 0x407824c6b0aa9e06, 0x3ff0000000000000},
	{"DEC Alpha@300", 0x407d738730294422, 0x4028cf9e60f3e55f},
	{"DEC Alpha@300/4", 0x407d738730294422, 0x4028cf9e60f3e55f},
	{"FreeBSD/i586", 0x407a20cabcabaaa2, 0x3ff0000000000000},
	{"HP 9000/735", 0x407312cecf8819eb, 0x40696e72a6394174},
	{"HP K210", 0x406e46830088884e, 0x4062a18d23e3471c},
	{"HP K210/2", 0x406e46830088884e, 0x4062a18d23e3471c},
	{"IBM Power2", 0x40829bb755591292, 0x3ff0000000000000},
	{"IBM PowerPC", 0x407e4681085b7ad4, 0x40858ac598d19f0c},
	{"Linux/Alpha", 0x4087f0c9b33a8740, 0x40378d70fec8d960},
	{"Linux/i486", 0x407b3f72aa3191cc, 0x40522a55d624d4d3},
	{"Linux/i586", 0x4079c6644e7a9e1b, 0x3ff0000000000000},
	{"Linux/i686", 0x406257062ebcbc30, 0x4078e3c8b0080f84},
	{"Modern/desktop-3GHz", 0x4018e9fbbeffc5e9, 0x400a77cece870dd3},
	{"Modern/laptop-2GHz", 0x4023b0627d5d93fc, 0x40142a7f0190f42a},
	{"Modern/server-128B", 0x40245851e122e714, 0x40145893b92aa1ca},
	{"NetBSD/i586", 0x407add35330e0e0c, 0x3ff0000000000000},
	{"SGI Challenge", 0x4098b7c72cad68ca, 0x405a03cebdaf5ead},
	{"SGI Challenge/4", 0x4098b7c72cad68ca, 0x405a03cebdaf5ead},
	{"SGI Indigo2", 0x4097e489bc64c714, 0x40600d4bebd355c2},
	{"Solaris/i686", 0x4067fde76af73862, 0x406dbc870c98f95c},
	{"Sun SC1000", 0x409698c10c7fc15f, 0x4077eaffdf171d0a},
	{"Sun SC1000/8", 0x409698c10c7fc15f, 0x4077eaffdf171d0a},
	{"Sun Ultra1", 0x407af23f840b0ed2, 0x3ff0000000000000},
	{"SunOS/SS20", 0x409365588e316b26, 0x407254330f5ea53a},
	{"Unixware/i686", 0x40603b999b4c22e2, 0x406b1dae311a2459},
}

// TestDRAMCalibrationPinned builds every profile in the default catalog
// and checks its calibrated FillNS and WritebackNS bit for bit, so a
// drift names the profile and the field instead of surfacing as a
// golden-database hash mismatch.
func TestDRAMCalibrationPinned(t *testing.T) {
	entries := Default().Entries()
	if len(entries) != len(dramPins) {
		t.Errorf("default catalog has %d profiles, pin table %d", len(entries), len(dramPins))
	}
	pins := make(map[string]int, len(dramPins))
	for i, pin := range dramPins {
		pins[pin.name] = i
	}
	for _, e := range entries {
		name := e.Profile.Name
		i, ok := pins[name]
		if !ok {
			t.Errorf("%s: no pinned DRAM calibration", name)
			continue
		}
		pin := dramPins[i]
		m, err := Build(e.Profile)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		d := m.mem.Config().DRAM
		if got := math.Float64bits(d.FillNS); got != pin.fill {
			t.Errorf("%s FillNS = %v (%#016x), want %v (%#016x)", name, d.FillNS, got, math.Float64frombits(pin.fill), pin.fill)
		}
		if got := math.Float64bits(d.WritebackNS); got != pin.writeback {
			t.Errorf("%s WritebackNS = %v (%#016x), want %v (%#016x)", name, d.WritebackNS, got, math.Float64frombits(pin.writeback), pin.writeback)
		}
	}
}

// referenceCalibrateDRAM is the DRAM calibration by simulation alone:
// the same bisections as calibrateDRAM, with every probe simulating a
// fresh calibration stream on a new scratch hierarchy that carries the
// candidate timing. It is the reference calibrateDRAM must reproduce
// bit for bit.
func referenceCalibrateDRAM(p Profile, line int) simmem.DRAMConfig {
	cfg := simmem.DRAMConfig{LatencyNS: p.MemLatNS}
	if cfg.LatencyNS <= 0 {
		cfg.LatencyNS = 300
	}
	naive := float64(line) / (1 << 20) * 1e9
	if p.ReadBW > 0 {
		cfg.FillNS = bisect(1e-3, 4*naive/p.ReadBW+200, func(f float64) float64 {
			c := cfg
			c.FillNS = f
			c.WritebackNS = 1
			return -referenceStreamBW(p, c, false)
		}, -p.ReadBW)
	}
	cfg.WritebackNS = 1
	if p.WriteBW > 0 {
		cfg.WritebackNS = bisect(1e-3, 8*naive/p.WriteBW+200, func(w float64) float64 {
			c := cfg
			c.WritebackNS = w
			return -referenceStreamBW(p, c, true)
		}, -p.WriteBW)
		if cfg.WritebackNS < 1 {
			cfg.WritebackNS = 1
		}
	}
	return cfg
}

// referenceStreamBW simulates one calibration stream under DRAM timing
// dram on a fresh scratch hierarchy and returns its bandwidth in MB/s.
func referenceStreamBW(p Profile, dram simmem.DRAMConfig, write bool) float64 {
	clk := &sim.Clock{}
	width := p.IssueWidth
	if width <= 0 {
		width = 2
	}
	h, err := simmem.New(sim.NewCPU(clk, sim.CPUConfig{MHz: p.MHz, IssueWidth: width}), simmem.Config{Caches: p.Caches, DRAM: dram})
	if err != nil {
		panic(err)
	}
	var cacheTotal int64
	for _, c := range p.Caches {
		cacheTotal += c.Size
	}
	base := h.Alloc(cacheTotal + calibrationSpan)
	if write {
		h.StreamWrite(base, cacheTotal)
		base += uint64(cacheTotal)
	}
	start := clk.Now()
	if write {
		h.StreamWrite(base, calibrationSpan)
	} else {
		h.StreamRead(base, calibrationSpan)
	}
	return float64(calibrationSpan) / (1 << 20) / (clk.Now() - start).Seconds()
}

// randCalibrationProfile draws a small one- or two-level machine with
// random clock, issue width, DRAM latency and Table-2 targets. The
// first draw has no read target (FillNS falls back to the latency) and
// the second a write target beyond what write-allocate can reach (the
// Power2 clamp).
func randCalibrationProfile(rng *rand.Rand, i int) Profile {
	line := 16 << rng.Intn(2)
	l1 := simmem.CacheConfig{Name: "L1", LineSize: line, Assoc: []int{0, 1, 2, 4}[rng.Intn(4)], LatencyNS: 5 + 10*rng.Float64()}
	l1.Size = int64(line * 8 * (1 + rng.Intn(16)))
	p := Profile{
		Name:       fmt.Sprintf("random-%d", i),
		MHz:        float64(20 + rng.Intn(300)),
		IssueWidth: 1 + rng.Intn(4),
		Caches:     []simmem.CacheConfig{l1},
		MemLatNS:   float64(rng.Intn(2)) * (100 + 400*rng.Float64()),
		ReadBW:     5 + 150*rng.Float64(),
	}
	p.WriteBW = p.ReadBW * (0.15 + 0.4*rng.Float64())
	if rng.Intn(2) == 0 {
		l2 := simmem.CacheConfig{Name: "L2", LineSize: line << rng.Intn(2), Assoc: 1 + rng.Intn(4), LatencyNS: 30 + 50*rng.Float64()}
		l2.Size = int64(l2.LineSize * l2.Assoc * (64 + rng.Intn(400)))
		p.Caches = append(p.Caches, l2)
	}
	switch i {
	case 0:
		p.ReadBW = 0
	case 1:
		p.WriteBW = 1e5
	}
	return p
}

// TestCalibrateDRAMMatchesSimulation checks that pricing every probe
// from one simulated stream per direction yields bit-identical DRAM
// timing to simulating every probe.
func TestCalibrateDRAMMatchesSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 5; i++ {
		p := randCalibrationProfile(rng, i)
		line := p.Caches[0].LineSize
		got, err := calibrateDRAM(p, line)
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		want := referenceCalibrateDRAM(p, line)
		if math.Float64bits(got.FillNS) != math.Float64bits(want.FillNS) ||
			math.Float64bits(got.WritebackNS) != math.Float64bits(want.WritebackNS) {
			t.Errorf("%+v: calibrated %+v, simulation gives %+v", p, got, want)
		}
	}
}

// calibrationSink keeps the benchmarked calibration's result live.
var calibrationSink simmem.DRAMConfig

// BenchmarkCalibrateDRAM times one DRAM calibration, called directly,
// for a small 1990s hierarchy and the largest modern one.
func BenchmarkCalibrateDRAM(b *testing.B) {
	cat := Default()
	for _, name := range []string{"Linux/i686", "Modern/server-128B"} {
		p, ok := cat.ByName(name)
		if !ok {
			b.Fatalf("no profile %q", name)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				calibrationSink, _ = calibrateDRAM(p, p.Caches[0].LineSize)
			}
		})
	}
}
