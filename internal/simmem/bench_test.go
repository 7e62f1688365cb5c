package simmem

import (
	"testing"

	"repro/internal/sim"
)

// benchHierarchy builds a hierarchy without *testing.T plumbing, for
// the micro-benchmarks pinning the simulator's per-access cost.
func benchHierarchy(b *testing.B, mutate func(*Config)) *Hierarchy {
	b.Helper()
	clk := &sim.Clock{}
	cpu := sim.NewCPU(clk, sim.CPUConfig{MHz: 100, IssueWidth: 4})
	cfg := Config{
		Caches: []CacheConfig{
			{Name: "L1", Size: 8 << 10, LineSize: 32, Assoc: 2, LatencyNS: 5, FillNS: 5},
			{Name: "L2", Size: 256 << 10, LineSize: 32, Assoc: 4, LatencyNS: 50, FillNS: 40},
		},
		DRAM: DRAMConfig{LatencyNS: 300, FillNS: 100, WritebackNS: 100},
		TLB:  TLBConfig{Entries: 64, PageSize: 4 << 10, MissNS: 200},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	h, err := New(cpu, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return h
}

// BenchmarkLoadL1Hit is the set-associative fast path: a re-loaded
// address answered by the L1 MRU-way hint.
func BenchmarkLoadL1Hit(b *testing.B) {
	h := benchHierarchy(b, nil)
	addr := h.Alloc(4096)
	h.Load(addr) // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Load(addr)
	}
}

// BenchmarkLoadFullyAssocHit is the fully-associative fast path: a
// 64-way single-set L1 answers through the head check / tag index
// instead of a 64-way scan.
func BenchmarkLoadFullyAssocHit(b *testing.B) {
	h := benchHierarchy(b, func(cfg *Config) {
		cfg.Caches[0].Assoc = 64
		cfg.Caches[0].Size = 64 * 32
	})
	addr := h.Alloc(4096)
	h.Load(addr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Load(addr)
	}
}

// BenchmarkChaseDRAM walks a memory-sized pointer chase — the Figure-1
// plateau workload: every load misses all levels, evicts, and charges
// DRAM latency. Each Walk covers at most one lap, and a zero-byte read
// before it bumps the hierarchy's epoch and nothing else, so no lap
// chains on the previous one and ns/op stays the simulated per-load
// miss path.
func BenchmarkChaseDRAM(b *testing.B) {
	h := benchHierarchy(b, nil)
	base := h.Alloc(4 << 20)
	ch := h.NewChase(base, 4<<20, 128)
	lap := ch.Length()
	ch.Walk(lap) // warm: chase state past the caches
	b.ReportAllocs()
	b.ResetTimer()
	for left := int64(b.N); left > 0; left -= lap {
		h.StreamRead(0, 0)
		ch.Walk(min(left, lap))
	}
	if h.PassHits() != 0 {
		b.Fatalf("%d laps charged from the memo", h.PassHits())
	}
}

// BenchmarkChaseDRAMSteady is the memo's lap path: one op is a
// Figure-1 timed walk of two laps chained on a lap already verified
// steady, so both laps are charged without simulation.
func BenchmarkChaseDRAMSteady(b *testing.B) {
	h := benchHierarchy(b, nil)
	base := h.Alloc(4 << 20)
	ch := h.NewChase(base, 4<<20, 128)
	lap := ch.Length()
	ch.Walk(lap)     // warm
	ch.Walk(2 * lap) // verify the steady state
	hits := h.PassHits()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Walk(2 * lap)
	}
	if got := h.PassHits() - hits; got != 2*int64(b.N) {
		b.Fatalf("%d of %d laps charged from the memo", got, 2*b.N)
	}
}

// BenchmarkStreamReadResident streams over an L2-resident region: the
// page-hoisted TLB probe plus the L1/L2 hit paths. A zero-byte read
// between iterations bumps the hierarchy's epoch and nothing else, so
// no read chains on the previous one and every op is simulated rather
// than charged from the pass memo.
func BenchmarkStreamReadResident(b *testing.B) {
	h := benchHierarchy(b, nil)
	const bytes = 128 << 10
	base := h.Alloc(bytes)
	h.StreamRead(base, bytes) // warm into L2
	b.ReportAllocs()
	b.SetBytes(bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.StreamRead(0, 0)
		h.StreamRead(base, bytes)
	}
}

// BenchmarkStreamReadSteady is the pass memo's hit path: the same
// L2-resident read repeated back to back, verified steady before the
// timer starts, so each op is charged in one step.
func BenchmarkStreamReadSteady(b *testing.B) {
	h := benchHierarchy(b, nil)
	const bytes = 128 << 10
	base := h.Alloc(bytes)
	h.StreamRead(base, bytes) // warm into L2
	h.StreamRead(base, bytes) // verify the steady state
	b.ReportAllocs()
	b.SetBytes(bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.StreamRead(base, bytes)
	}
	if h.PassHits() < int64(b.N) {
		b.Fatalf("%d of %d reads charged from the memo", h.PassHits(), b.N)
	}
}
