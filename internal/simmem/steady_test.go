package simmem

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/sim"
)

// randSteadyConfig draws a small hierarchy: 1-3 levels of direct-mapped,
// 2/3/4-way (often with a non-power-of-two set count) or fully
// associative caches, and no TLB, a set-associative one or a fully
// associative one. Everything is tiny so a chase laps it many times.
func randSteadyConfig(rng *rand.Rand) Config {
	cfg := Config{DRAM: DRAMConfig{LatencyNS: 120, FillNS: 60, WritebackNS: 50}}
	line := 16 << rng.Intn(2)
	for i, levels := 0, 1+rng.Intn(3); i < levels; i++ {
		if i > 0 && rng.Intn(2) == 0 {
			line *= 2
		}
		cc := CacheConfig{Name: fmt.Sprintf("L%d", i+1), LineSize: line, LatencyNS: float64(3 + 15*i)}
		if rng.Intn(5) == 0 {
			cc.Size = int64((fullyAssocMin + rng.Intn(9)) * line) // Assoc 0: fully associative
		} else {
			cc.Assoc = 1 + rng.Intn(4)
			cc.Size = int64((1 + rng.Intn(12)) * cc.Assoc * line)
		}
		cfg.Caches = append(cfg.Caches, cc)
	}
	switch rng.Intn(3) {
	case 1:
		cfg.TLB = TLBConfig{Entries: 2 * (2 + rng.Intn(5)), Assoc: 2, PageSize: 256 << rng.Intn(3), MissNS: 40}
	case 2:
		cfg.TLB = TLBConfig{Entries: fullyAssocMin + rng.Intn(9), PageSize: 256 << rng.Intn(3), MissNS: 40}
	}
	return cfg
}

// canonState returns the hierarchy's canonical state encoding.
func canonState(t *testing.T, h *Hierarchy) []uint32 {
	t.Helper()
	w := canonWalker{ok: true}
	if !h.canon(&w) {
		t.Fatal("canonical state does not encode")
	}
	return w.buf
}

// refChase is the plain per-load loop Chase.Walk must be
// indistinguishable from: one Hierarchy.Load per element.
type refChase struct {
	h                 *Hierarchy
	base              uint64
	size, stride, off int64
}

func (r *refChase) walk(n int64) {
	for i := int64(0); i < n; i++ {
		r.h.Load(r.base + uint64(r.off))
		r.off = (r.off + r.stride) % r.size
	}
}

// TestChaseExtrapolationMatchesSimulation drives two identical
// hierarchies through the same random sequence: one walks its chases
// with Chase.Walk (which extrapolates verified steady laps), the other
// with the per-load loop. Between walks both see the same random loads,
// stores, streaming kernels, dirty and write chases, page chases and
// flushes, each of which must invalidate any remembered steady state. After every call the clocks, every Stats
// counter, the chase offsets and the canonical cache/TLB state must be
// identical.
func TestChaseExtrapolationMatchesSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	extrapolated := 0
	for trial := 0; trial < 300; trial++ {
		cfg := randSteadyConfig(rng)
		var hs [2]*Hierarchy
		var clks [2]*sim.Clock
		for i := range hs {
			clks[i] = &sim.Clock{}
			h, err := New(sim.NewCPU(clks[i], sim.CPUConfig{MHz: 100}), cfg)
			if err != nil {
				t.Fatal(err)
			}
			hs[i] = h
		}
		var cacheBytes int64
		for _, cc := range cfg.Caches {
			cacheBytes += cc.Size
		}
		region := 3*cacheBytes + 128 // room for the widest stride
		base := hs[0].Alloc(region)
		hs[1].Alloc(region)

		both := func(f func(*Hierarchy)) { f(hs[0]); f(hs[1]) }
		var chases []*Chase
		var refs []*refChase
		for i := 0; i < 2; i++ {
			stride := int64(4 * (1 + rng.Intn(24))) // sub-line to several lines
			size := stride + rng.Int63n(region-stride+1)
			chases = append(chases, hs[0].NewChase(base, size, stride))
			refs = append(refs, &refChase{h: hs[1], base: base, size: size, stride: stride})
		}
		for step := 0; step < 24; step++ {
			ctx := fmt.Sprintf("trial %d step %d (cfg %+v)", trial, step, cfg)
			switch op := rng.Intn(12); {
			case op < 6:
				i := rng.Intn(len(chases))
				ch, period := chases[i], chases[i].period
				var n int64
				switch rng.Intn(3) {
				case 0: // below two laps: never extrapolated
					n = rng.Int63n(2 * period)
				case 1: // whole laps
					n = period * int64(2+rng.Intn(4))
				default: // whole laps plus a tail
					n = period*int64(2+rng.Intn(4)) + rng.Int63n(period)
				}
				ch.Walk(n)
				refs[i].walk(n)
				if ch.steady {
					extrapolated++
				}
				if ch.off != refs[i].off {
					t.Fatalf("%s: chase %d offset %d, want %d", ctx, i, ch.off, refs[i].off)
				}
				ctx += fmt.Sprintf(" after Walk(%d) on chase %d", n, i)
			case op < 7:
				a := base + uint64(rng.Int63n(region))
				both(func(h *Hierarchy) { h.Load(a) })
			case op < 8:
				a := base + uint64(rng.Int63n(region))
				both(func(h *Hierarchy) { h.Store(a) })
			case op < 9:
				off := rng.Int63n(region)
				n := rng.Int63n(region - off + 1)
				switch rng.Intn(4) {
				case 0:
					both(func(h *Hierarchy) { h.StreamRead(base+uint64(off), n) })
				case 1:
					both(func(h *Hierarchy) { h.StreamWrite(base+uint64(off), n) })
				case 2:
					both(func(h *Hierarchy) { h.StreamCopy(base, base+uint64(off), n) })
				default:
					both(func(h *Hierarchy) { h.StreamKernel(base+uint64(off), []uint64{base}, n, 2) })
				}
			case op < 10:
				// The chases' other workloads, one element at a time.
				i, n := rng.Intn(len(chases)), rng.Int63n(8)
				ch, ref := chases[i], refs[i]
				for k := int64(0); k < n; k++ {
					a := ref.base + uint64(ref.off)
					if dirty := rng.Intn(2) == 0; dirty {
						ch.WalkDirty(1)
						ref.h.Load(a)
					} else {
						ch.WalkWrite(1)
					}
					ref.h.Store(a)
					ref.off = (ref.off + ref.stride) % ref.size
				}
			case op < 11:
				pages := []uint64{base, base + uint64(region/2)}
				n := rng.Int63n(4)
				both(func(h *Hierarchy) { h.NewPageChase(pages).Walk(n) })
			default:
				both(func(h *Hierarchy) { h.FlushAll() })
			}
			if got, want := clks[0].Now(), clks[1].Now(); got != want {
				t.Fatalf("%s: clock %v, want %v", ctx, got, want)
			}
			if got, want := hs[0].Stats(), hs[1].Stats(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: stats %+v, want %+v", ctx, got, want)
			}
			if !slices.Equal(canonState(t, hs[0]), canonState(t, hs[1])) {
				t.Fatalf("%s: canonical cache/TLB state differs", ctx)
			}
		}
	}
	// The check is vacuous unless extrapolation actually fires.
	if extrapolated < 1000 {
		t.Errorf("only %d walks extrapolated", extrapolated)
	}
}

// TestChaseSteadyMemo pins the memo's lifetime: a verified chase
// reuses its verification on its next walk, and every other call that
// can touch the caches or the TLB forgets it.
func TestChaseSteadyMemo(t *testing.T) {
	touches := map[string]func(h *Hierarchy, other *Chase, base uint64){
		"Load":          func(h *Hierarchy, _ *Chase, a uint64) { h.Load(a) },
		"Store":         func(h *Hierarchy, _ *Chase, a uint64) { h.Store(a) },
		"StreamRead":    func(h *Hierarchy, _ *Chase, a uint64) { h.StreamRead(a, 64) },
		"StreamWrite":   func(h *Hierarchy, _ *Chase, a uint64) { h.StreamWrite(a, 64) },
		"StreamCopy":    func(h *Hierarchy, _ *Chase, a uint64) { h.StreamCopy(a, a+4096, 64) },
		"StreamKernel":  func(h *Hierarchy, _ *Chase, a uint64) { h.StreamKernel(a, []uint64{a + 4096}, 64, 1) },
		"FlushAll":      func(h *Hierarchy, _ *Chase, _ uint64) { h.FlushAll() },
		"Reset":         func(h *Hierarchy, _ *Chase, _ uint64) { h.Reset(h.Mark()) },
		"WalkDirty":     func(_ *Hierarchy, o *Chase, _ uint64) { o.WalkDirty(1) },
		"WalkWrite":     func(_ *Hierarchy, o *Chase, _ uint64) { o.WalkWrite(1) },
		"PageChase":     func(h *Hierarchy, _ *Chase, a uint64) { h.NewPageChase([]uint64{a}).Walk(1) },
		"another Chase": func(_ *Hierarchy, o *Chase, _ uint64) { o.Walk(1) },
	}
	for name, touch := range touches {
		t.Run(name, func(t *testing.T) {
			h, _ := testHierarchy(t, nil)
			base := h.Alloc(1 << 20)
			ch := h.NewChase(base, 1<<20, 128)
			other := h.NewChase(base, 4096, 64)
			ch.Walk(ch.Length())
			if ch.steady {
				t.Fatal("a one-lap walk verified a steady state")
			}
			ch.Walk(2 * ch.Length())
			if !ch.steady {
				t.Fatal("a DRAM-sized chase found no steady state")
			}
			ch.Walk(3*ch.Length() + 5)
			if !ch.steady || ch.epoch != h.epoch {
				t.Fatal("the memo did not survive the chase's own walk")
			}
			touch(h, other, base)
			ch.Walk(1)
			if ch.steady {
				t.Fatalf("the memo survived %s", name)
			}
		})
	}
}

// TestChaseSteadyMRUHintBit builds the state where only the MRU-hint
// bit tells two laps apart: an L1 set whose hint names a way emptied by
// back-invalidation, above a one-line chase. The first lap finds its
// line by scanning and re-points the hint; every later lap hits the
// hint. Resident lines and their order are the same before and after
// the first lap, so without the bit that lap would pass as steady and
// the extrapolated laps would miss their MRUHits.
func TestChaseSteadyMRUHintBit(t *testing.T) {
	cfg := Config{
		Caches: []CacheConfig{
			{Name: "L1", Size: 4 * 32, LineSize: 32, Assoc: 2, LatencyNS: 5},  // 2 sets
			{Name: "L2", Size: 3 * 32, LineSize: 32, Assoc: 1, LatencyNS: 50}, // 3 sets
		},
		DRAM: DRAMConfig{LatencyNS: 300},
	}
	var hs [2]*Hierarchy
	var base uint64
	for i := range hs {
		h, err := New(sim.NewCPU(&sim.Clock{}, sim.CPUConfig{MHz: 100}), cfg)
		if err != nil {
			t.Fatal(err)
		}
		base = h.Alloc(8 * 32)
		// Lines 0 and 2 share L1 set 0; line 5 evicts line 2 from the
		// L2 set they share, back-invalidating it in L1, and fills L1
		// set 1. L1 set 0 then holds only line 0, hint on the empty way.
		for _, line := range []uint64{0, 2, 5} {
			h.Load(base + 32*line)
		}
		hs[i] = h
	}
	ch := hs[0].NewChase(base, 32, 32)
	ch.Walk(10)
	for i := 0; i < 10; i++ {
		hs[1].Load(base)
	}
	if !ch.steady {
		t.Fatal("the one-line chase found no steady state")
	}
	if got, want := hs[0].Stats(), hs[1].Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("stats %+v, want %+v", got, want)
	}
	if got, want := hs[0].ClockHandle().Now(), hs[1].ClockHandle().Now(); got != want {
		t.Fatalf("clock %v, want %v", got, want)
	}
}
