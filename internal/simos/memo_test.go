package simos

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/simmem"
)

// memoGeometries are the hierarchies the pass-memo tests run on: the
// package's usual 8K/256K pair without a TLB, and a small two-level
// hierarchy with a fully associative TLB that the larger rings thrash.
var memoGeometries = []simmem.Config{
	{
		Caches: []simmem.CacheConfig{
			{Name: "L1", Size: 8 << 10, LineSize: 32, Assoc: 2, LatencyNS: 5, FillNS: 5},
			{Name: "L2", Size: 256 << 10, LineSize: 32, Assoc: 4, LatencyNS: 50, FillNS: 40},
		},
		DRAM: simmem.DRAMConfig{LatencyNS: 300, FillNS: 100, WritebackNS: 100},
	},
	{
		Caches: []simmem.CacheConfig{
			{Name: "L1", Size: 2 << 10, LineSize: 16, Assoc: 1, LatencyNS: 4},
			{Name: "L2", Size: 24 << 10, LineSize: 32, Assoc: 3, LatencyNS: 30, FillNS: 20},
		},
		DRAM: simmem.DRAMConfig{LatencyNS: 200, FillNS: 80, WritebackNS: 60},
		TLB:  simmem.TLBConfig{Entries: 16, PageSize: 4096, MissNS: 90},
	},
}

// memoOS builds an OS over cfg with a 16K pipe buffer, so transfers
// span several chunks.
func memoOS(t *testing.T, cfg simmem.Config) (*OS, *sim.Clock) {
	t.Helper()
	clk := &sim.Clock{}
	cpu := sim.NewCPU(clk, sim.CPUConfig{MHz: 100, IssueWidth: 2})
	mem, err := simmem.New(cpu, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return New(cpu, mem, Config{SyscallNS: 3000, CtxSwitchNS: 6000, PipeBufBytes: 16 << 10}), clk
}

// TestRingAndPipeMemoMatchSimulation drives two identical machines
// through the same random sequence of ring and pipe calls. The
// reference runs every circulation (Circulate, Warm) as its Procs
// single hops and issues a zero-byte StreamRead before every call,
// which breaks every chain, so nothing it does is charged from the pass
// memo. Clock, every memory counter and each ring's current process
// must agree after every call, and Circulate must leave the current
// process where it found it.
func TestRingAndPipeMemoMatchSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var hits int64
	for gi, geo := range memoGeometries {
		for trial := 0; trial < 20; trial++ {
			var oss [2]*OS
			var clks [2]*sim.Clock
			var rings [2][]*Ring
			var pipes [2]*Pipe
			var bufs [2][4]uint64
			shapes := make([][2]int64, 1+rng.Intn(3))
			for i := range shapes {
				shapes[i] = [2]int64{int64(1 + rng.Intn(6)), []int64{0, 100, 4 << 10, 9000, 32 << 10}[rng.Intn(5)]}
			}
			for i := range oss {
				oss[i], clks[i] = memoOS(t, geo)
				for _, s := range shapes {
					r, err := oss[i].NewRing(int(s[0]), s[1])
					if err != nil {
						t.Fatal(err)
					}
					rings[i] = append(rings[i], r)
				}
				pipes[i] = oss[i].NewPipe()
				for j := range bufs[i] {
					bufs[i][j] = oss[i].Mem().Alloc(64 << 10)
				}
			}
			transfers := make([][3]int64, 2)
			for i := range transfers {
				transfers[i] = [3]int64{rng.Int63n(4), rng.Int63n(4), 1 + rng.Int63n(64<<10)}
			}
			for step := 0; step < 40; step++ {
				ri := rng.Intn(len(shapes))
				var desc string
				var call func(i int, o *OS)
				switch op := rng.Intn(10); {
				case op < 4:
					desc = fmt.Sprintf("Circulate on ring %d", ri)
					call = func(i int, _ *OS) {
						r := rings[i][ri]
						if i == 1 {
							for k := 0; k < r.Procs(); k++ {
								r.Pass()
							}
							return
						}
						cur := r.cur
						r.Circulate()
						if r.cur != cur {
							t.Fatalf("Circulate moved the token from %d to %d", cur, r.cur)
						}
					}
				case op < 5:
					desc = fmt.Sprintf("Warm on ring %d", ri)
					call = func(i int, _ *OS) {
						r := rings[i][ri]
						if i == 1 {
							for k := 0; k < r.Procs(); k++ {
								r.Pass()
							}
							return
						}
						r.Warm()
					}
				case op < 7:
					desc = fmt.Sprintf("Pass on ring %d", ri)
					call = func(i int, _ *OS) { rings[i][ri].Pass() }
				case op < 9:
					tr := transfers[rng.Intn(len(transfers))]
					desc = fmt.Sprintf("Transfer %v", tr)
					call = func(i int, _ *OS) {
						if err := pipes[i].Transfer(bufs[i][tr[0]], bufs[i][tr[1]], tr[2]); err != nil {
							t.Fatal(err)
						}
					}
				default:
					desc = "Load"
					a := rng.Intn(4)
					call = func(i int, o *OS) { o.Mem().Load(bufs[i][a]) }
				}
				reps := 1 + rng.Intn(4)
				for r := 0; r < reps; r++ {
					call(0, oss[0])
					oss[1].Mem().StreamRead(0, 0)
					call(1, oss[1])
				}
				ctx := fmt.Sprintf("geometry %d trial %d step %d after %d x %s", gi, trial, step, reps, desc)
				if got, want := clks[0].Now(), clks[1].Now(); got != want {
					t.Fatalf("%s: clock %v, want %v", ctx, got, want)
				}
				if got, want := oss[0].Mem().Stats(), oss[1].Mem().Stats(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: stats %+v, want %+v", ctx, got, want)
				}
				for k := range shapes {
					if got, want := rings[0][k].cur, rings[1][k].cur; got != want {
						t.Fatalf("%s: ring %d at process %d, want %d", ctx, k, got, want)
					}
				}
			}
			if n := oss[1].Mem().PassHits(); n != 0 {
				t.Fatalf("the chain-broken reference took %d memo hits", n)
			}
			hits += oss[0].Mem().PassHits()
		}
	}
	// The check is vacuous unless circulations and transfers are
	// actually charged from the memo.
	if hits < 200 {
		t.Errorf("only %d passes charged from the memo", hits)
	}
}
