package simmem

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ptime"
	"repro/internal/sim"
)

// memoPass is one randomly drawn pass: a Stream* call or a Repeat
// composite. brk runs between the calls a composite makes; the
// reference hierarchy breaks every chain with it.
type memoPass struct {
	desc string
	run  func(h *Hierarchy, brk func())
}

// memoOwners gives composite passes stable identities to key on.
var memoOwners [8]int

// randMemoPass draws a pass over [base, base+region). Below depth 2 it
// may be a Repeat composite whose body is a few inner passes (possibly
// composites themselves) and a fixed clock charge.
func randMemoPass(rng *rand.Rand, base uint64, region int64, depth int) memoPass {
	span := func() (uint64, int64) {
		off := rng.Int63n(region)
		return base + uint64(off), 1 + rng.Int63n(region-off)
	}
	kinds := 4
	if depth < 2 {
		kinds = 5
	}
	switch rng.Intn(kinds) {
	case 0:
		a, n := span()
		return memoPass{fmt.Sprintf("StreamRead(%#x, %d)", a, n), func(h *Hierarchy, _ func()) { h.StreamRead(a, n) }}
	case 1:
		a, n := span()
		return memoPass{fmt.Sprintf("StreamWrite(%#x, %d)", a, n), func(h *Hierarchy, _ func()) { h.StreamWrite(a, n) }}
	case 2:
		a, n := span()
		src := base + uint64(rng.Int63n(region-n+1))
		hw := rng.Intn(2) == 0
		return memoPass{fmt.Sprintf("StreamCopyMode(%#x, %#x, %d, %v)", src, a, n, hw),
			func(h *Hierarchy, _ func()) { h.StreamCopyMode(src, a, n, hw) }}
	case 3:
		a, n := span()
		srcs := []uint64{base + uint64(rng.Int63n(region-n+1))}
		if rng.Intn(2) == 0 {
			srcs = append(srcs, base+uint64(rng.Int63n(region-n+1)))
		}
		ops := 1 + rng.Intn(5)
		return memoPass{fmt.Sprintf("StreamKernel(%#x, %#x, %d, %d)", a, srcs, n, ops),
			func(h *Hierarchy, _ func()) { h.StreamKernel(a, srcs, n, ops) }}
	}
	inner := make([]memoPass, 1+rng.Intn(3))
	for i := range inner {
		inner[i] = randMemoPass(rng, base, region, depth+1)
	}
	key := Key{Owner: &memoOwners[rng.Intn(len(memoOwners))]}
	for i := range key.Args {
		key.Args[i] = uint64(rng.Intn(3))
	}
	work := rng.Int63n(4 * region) // sometimes too small to pay
	extra := ptime.Duration(rng.Int63n(1000))
	return memoPass{fmt.Sprintf("Repeat(%v, %d, %v)", key.Args, work, inner), func(h *Hierarchy, brk func()) {
		h.Repeat(key, work, func() {
			h.ClockHandle().Advance(extra)
			for _, p := range inner {
				p.run(h, brk)
				brk()
			}
		})
	}}
}

// TestPassMemoMatchesSimulation drives two identical hierarchies
// through the same random call sequence of passes and chase walks (one
// lap, several laps, or a tail after up to two laps). The reference
// issues a zero-byte StreamRead before every call and between the calls
// inside every composite, which bumps the epoch and nothing else, and
// walks its chase one Load at a time, so none of its passes ever chains
// and all of them are simulated. The other runs the sequence as is, so
// repeated passes and laps are charged from the memo. Clock, every
// Stats counter, the chase offset and the canonical state must agree
// after every call.
func TestPassMemoMatchesSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var memoHits, lapHits int64
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
		region := 2*cacheBytes + 128
		base := hs[0].Alloc(region)
		hs[1].Alloc(region)
		brks := [2]func(){func() {}, func() { hs[1].StreamRead(0, 0) }}
		each := func(f func(h *Hierarchy, brk func())) {
			for i, h := range hs {
				brks[i]()
				f(h, brks[i])
			}
		}

		pool := make([]memoPass, 2+rng.Intn(4))
		for i := range pool {
			pool[i] = randMemoPass(rng, base, region, 0)
		}
		stride := int64(4 * (1 + rng.Intn(16)))
		size := stride + rng.Int63n(region-stride+1)
		ch := hs[0].NewChase(base, size, stride)
		ref := &refChase{h: hs[1], base: base, size: size, stride: stride}
		for step := 0; step < 30; step++ {
			var desc string
			switch op := rng.Intn(12); {
			case op < 7:
				p := pool[rng.Intn(len(pool))]
				reps := 1 + rng.Intn(4)
				desc = fmt.Sprintf("%d x %s", reps, p.desc)
				for r := 0; r < reps; r++ {
					each(p.run)
				}
			case op < 8:
				a := base + uint64(rng.Int63n(region))
				if rng.Intn(2) == 0 {
					desc = "Load"
					each(func(h *Hierarchy, _ func()) { h.Load(a) })
				} else {
					desc = "Store"
					each(func(h *Hierarchy, _ func()) { h.Store(a) })
				}
			case op < 11:
				// The chase's laps share slot 0 with the passes above;
				// the reference walks it one Load at a time.
				var n int64
				switch rng.Intn(3) {
				case 0:
					n = ch.period
				case 1:
					n = ch.period * int64(2+rng.Intn(3))
				default:
					n = ch.period*int64(rng.Intn(3)) + rng.Int63n(ch.period)
				}
				desc = fmt.Sprintf("Chase.Walk(%d) at offset %d", n, ch.off)
				hits := hs[0].PassHits()
				ch.Walk(n)
				ref.walk(n)
				lapHits += hs[0].PassHits() - hits
				if ch.off != ref.off {
					t.Fatalf("trial %d step %d after %s: offset %d, want %d", trial, step, desc, ch.off, ref.off)
				}
			default:
				desc = "FlushAll"
				each(func(h *Hierarchy, _ func()) { h.FlushAll() })
			}
			ctx := fmt.Sprintf("trial %d step %d after %s (cfg %+v)", trial, step, desc, cfg)
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
		if hs[1].PassHits() != 0 {
			t.Fatalf("trial %d: the chain-broken reference took %d memo hits", trial, hs[1].PassHits())
		}
		memoHits += hs[0].PassHits()
	}
	// The check is vacuous unless the memo actually charges passes and
	// laps.
	t.Logf("%d passes and %d laps charged from the memo", memoHits-lapHits, lapHits)
	if memoHits-lapHits < 2000 {
		t.Errorf("only %d passes charged from the memo", memoHits-lapHits)
	}
	if lapHits < 1000 {
		t.Errorf("only %d laps charged from the memo", lapHits)
	}
}

// TestPassMemoInvalidation pins the memo's lifetime: a verified pass
// is charged on its next identical call, and every other call that can
// touch the caches or the TLB between two identical calls forces the
// second to be simulated again.
func TestPassMemoInvalidation(t *testing.T) {
	touches := map[string]func(h *Hierarchy, ch *Chase, a uint64){
		"Load":               func(h *Hierarchy, _ *Chase, a uint64) { h.Load(a) },
		"Store":              func(h *Hierarchy, _ *Chase, a uint64) { h.Store(a) },
		"FlushAll":           func(h *Hierarchy, _ *Chase, _ uint64) { h.FlushAll() },
		"Reset":              func(h *Hierarchy, _ *Chase, _ uint64) { h.Reset(h.Mark()) },
		"Chase.Walk":         func(_ *Hierarchy, c *Chase, _ uint64) { c.Walk(1) },
		"Chase.WalkDirty":    func(_ *Hierarchy, c *Chase, _ uint64) { c.WalkDirty(1) },
		"Chase.WalkWrite":    func(_ *Hierarchy, c *Chase, _ uint64) { c.WalkWrite(1) },
		"PageChase.Walk":     func(h *Hierarchy, _ *Chase, a uint64) { h.NewPageChase([]uint64{a}).Walk(1) },
		"StreamRead":         func(h *Hierarchy, _ *Chase, a uint64) { h.StreamRead(a, 64) },
		"StreamRead 0 bytes": func(h *Hierarchy, _ *Chase, a uint64) { h.StreamRead(a, 0) },
		"StreamWrite":        func(h *Hierarchy, _ *Chase, a uint64) { h.StreamWrite(a, 64) },
		"StreamCopyMode":     func(h *Hierarchy, _ *Chase, a uint64) { h.StreamCopyMode(a, a+4096, 64, true) },
		"StreamKernel":       func(h *Hierarchy, _ *Chase, a uint64) { h.StreamKernel(a, []uint64{a + 4096}, 64, 1) },
		"other Repeat":       func(h *Hierarchy, _ *Chase, a uint64) { h.Repeat(Key{}, 0, func() { h.Load(a) }) },
	}
	const bytes = 256 << 10
	passes := map[string]func(h *Hierarchy, a uint64){
		"StreamRead":    func(h *Hierarchy, a uint64) { h.StreamRead(a, bytes) },
		"StreamWrite":   func(h *Hierarchy, a uint64) { h.StreamWrite(a, bytes) },
		"StreamCopy":    func(h *Hierarchy, a uint64) { h.StreamCopyMode(a, a+bytes+4096, bytes, false) },
		"StreamCopy hw": func(h *Hierarchy, a uint64) { h.StreamCopyMode(a, a+bytes+4096, bytes, true) },
		"StreamKernel":  func(h *Hierarchy, a uint64) { h.StreamKernel(a, []uint64{a + bytes + 4096}, bytes, 2) },
		"StreamKernel 2": func(h *Hierarchy, a uint64) {
			h.StreamKernel(a, []uint64{a + bytes + 4096, a + 2*bytes + 8192}, bytes, 5)
		},
		"Repeat": func(h *Hierarchy, a uint64) {
			h.Repeat(Key{Owner: &memoOwners[0], Args: [6]uint64{1}}, 2*bytes, func() {
				h.StreamRead(a, bytes)
				h.StreamWrite(a+bytes+4096, bytes)
			})
		},
	}
	for pname, pass := range passes {
		for tname, touch := range touches {
			t.Run(pname+"/"+tname, func(t *testing.T) {
				h, _ := testHierarchy(t, func(cfg *Config) {
					cfg.TLB = TLBConfig{Entries: 64, PageSize: 4096, MissNS: 100}
				})
				base := h.Alloc(4 << 20)
				ch := h.NewChase(base, 4096, 64)
				pass(h, base)
				pass(h, base)
				if h.PassHits() != 0 {
					t.Fatal("the memo charged a pass before verifying it")
				}
				untilHit(t, func() { pass(h, base) }, h)
				touch(h, ch, base)
				pass(h, base)
				if h.PassHits() != 1 {
					t.Fatalf("the memo survived %s", tname)
				}
			})
		}
	}
}

// untilHit repeats pass until the memo charges one repetition: a pass
// that dirties lines may need a repetition or two before it leaves the
// canonical state where it found it.
func untilHit(t *testing.T, pass func(), h *Hierarchy) {
	t.Helper()
	hits := h.PassHits()
	for i := 0; i < 5; i++ {
		pass()
		if h.PassHits() > hits {
			if h.PassHits() != hits+1 {
				t.Fatalf("one call was charged %d times", h.PassHits()-hits)
			}
			return
		}
	}
	t.Fatal("five repetitions were never charged from the memo")
}

// TestPassMemoKeyFields checks that a Repeat key differing from the
// verified one in any single field never chains on it.
func TestPassMemoKeyFields(t *testing.T) {
	h, _ := testHierarchy(t, nil)
	a := h.Alloc(64 << 10)
	body := func() { h.StreamRead(a, 64<<10) }
	want := Key{Owner: &memoOwners[0], Args: [6]uint64{1, 2, 3, 4, 5, 6}}
	variants := []Key{{Owner: &memoOwners[1], Args: want.Args}, {Owner: nil, Args: want.Args}}
	for i := range want.Args {
		k := want
		k.Args[i]++
		variants = append(variants, k)
	}
	for i, k := range variants {
		untilHit(t, func() { h.Repeat(want, 64<<10, body) }, h)
		hits := h.PassHits()
		h.Repeat(k, 64<<10, body)
		if h.PassHits() != hits {
			t.Errorf("variant %d (%+v) chained on %+v", i, k, want)
		}
	}
}

// TestPassMemoPrimitiveArgs checks the same for the Stream* calls:
// every argument is part of the key.
func TestPassMemoPrimitiveArgs(t *testing.T) {
	h, _ := testHierarchy(t, nil)
	const n = 64 << 10
	a := h.Alloc(8 * n)
	b, c := a+2*n, a+4*n
	type call func()
	pairs := map[string][2]call{
		"StreamRead addr":      {func() { h.StreamRead(a, n) }, func() { h.StreamRead(a+8, n) }},
		"StreamRead bytes":     {func() { h.StreamRead(a, n) }, func() { h.StreamRead(a, n-8) }},
		"StreamRead vs Write":  {func() { h.StreamRead(a, n) }, func() { h.StreamWrite(a, n) }},
		"StreamWrite addr":     {func() { h.StreamWrite(a, n) }, func() { h.StreamWrite(a+8, n) }},
		"StreamCopy src":       {func() { h.StreamCopyMode(a, b, n, false) }, func() { h.StreamCopyMode(a+8, b, n, false) }},
		"StreamCopy dst":       {func() { h.StreamCopyMode(a, b, n, false) }, func() { h.StreamCopyMode(a, b+8, n, false) }},
		"StreamCopy bytes":     {func() { h.StreamCopyMode(a, b, n, false) }, func() { h.StreamCopyMode(a, b, n-8, false) }},
		"StreamCopy hwCopy":    {func() { h.StreamCopyMode(a, b, n, false) }, func() { h.StreamCopyMode(a, b, n, true) }},
		"StreamKernel dst":     {func() { h.StreamKernel(a, []uint64{b}, n, 2) }, func() { h.StreamKernel(a+8, []uint64{b}, n, 2) }},
		"StreamKernel src":     {func() { h.StreamKernel(a, []uint64{b}, n, 2) }, func() { h.StreamKernel(a, []uint64{b + 8}, n, 2) }},
		"StreamKernel srcs":    {func() { h.StreamKernel(a, []uint64{b}, n, 2) }, func() { h.StreamKernel(a, []uint64{b, c}, n, 2) }},
		"StreamKernel src 2":   {func() { h.StreamKernel(a, []uint64{b, c}, n, 2) }, func() { h.StreamKernel(a, []uint64{b, c + 8}, n, 2) }},
		"StreamKernel bytes":   {func() { h.StreamKernel(a, []uint64{b}, n, 2) }, func() { h.StreamKernel(a, []uint64{b}, n-8, 2) }},
		"StreamKernel ops":     {func() { h.StreamKernel(a, []uint64{b}, n, 2) }, func() { h.StreamKernel(a, []uint64{b}, n, 3) }},
		"StreamKernel vs Copy": {func() { h.StreamKernel(a, []uint64{b}, n, 2) }, func() { h.StreamCopyMode(b, a, n, false) }},
	}
	for name, p := range pairs {
		untilHit(t, p[0], h)
		hits := h.PassHits()
		p[1]()
		if h.PassHits() != hits {
			t.Errorf("%s: a different call chained on the verified one", name)
		}
	}
}

// TestStreamKernelNoAllocs pins the STREAM Copy and Triad shapes to
// zero heap allocations per simulated call; the zero-byte read keeps
// every call off the memo.
func TestStreamKernelNoAllocs(t *testing.T) {
	h, _ := testHierarchy(t, nil)
	const n = 16 << 10
	a := h.Alloc(n)
	b, c := h.Alloc(n), h.Alloc(n)
	copySrcs, triadSrcs := []uint64{b}, []uint64{b, c}
	for name, f := range map[string]func(){
		"Copy":  func() { h.StreamRead(0, 0); h.StreamKernel(a, copySrcs, n, 2) },
		"Triad": func() { h.StreamRead(0, 0); h.StreamKernel(a, triadSrcs, n, 5) },
	} {
		if allocs := testing.AllocsPerRun(20, f); allocs != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, allocs)
		}
	}
}
