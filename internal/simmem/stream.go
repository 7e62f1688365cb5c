package simmem

import (
	"fmt"

	"repro/internal/ptime"
)

// The streaming and pointer-chase loops below are the simulator's hot
// paths: one call walks megabytes of simulated memory. They are written
// around three exact-equivalence optimizations (see DESIGN.md
// "Performance engineering"):
//
//   - Batched clock charging: per-access costs accumulate in a local
//     ptime.Duration and the clock advances once per call. The virtual
//     clock is an exact integer picosecond counter and no code observes
//     it mid-call, so the batched sum is bit-identical to per-access
//     advances.
//
//   - Page-granular TLB probing: a sequential stream re-probes the same
//     TLB entry for every chunk of a page. Immediately re-probing the
//     most recently touched entry is a guaranteed hit whose LRU
//     move-to-front is a no-op, so all but the first probe per page are
//     skipped. With several interleaved streams the skip is applied
//     only when Hierarchy.tlbHoistStreams proves no stream's entry can
//     be evicted mid-page (otherwise every chunk probes, as before).
//
//   - The steady-state memo (Chase.Walk's whole laps, the Stream*
//     calls, and composites run through Repeat): a pass repeated with
//     nothing else touching the hierarchy in between — the next lap of
//     a chase, or a call with the previous call's exact arguments — is
//     simulated once against a snapshot of the canonical state; if it
//     comes back unchanged, every further repetition is charged its
//     recorded clock and counter deltas in one step (steady.go).

// chunkSize returns the streaming granularity: the first-level line
// size, or one 64-byte pseudo-line when no caches are configured.
func (h *Hierarchy) chunkSize() int64 {
	if len(h.caches) > 0 {
		return int64(h.caches[0].cfg.LineSize)
	}
	return 64
}

// chunks returns how many chunks a stream of bytes spans.
func (h *Hierarchy) chunks(bytes int64) int64 { return (bytes + h.chunk - 1) / h.chunk }

// sideReadCost charges the cache-side work of streaming one chunk's
// read, excluding the TLB probe and the issue/fill overlap; memTime is
// the line-fill component the caller folds into maxDur(issue, ...).
func (h *Hierarchy) sideReadCost(addr uint64) (cost, memTime ptime.Duration) {
	lvl := h.level(addr, false)
	switch {
	case lvl == 0:
		h.stats.Hits[0]++
	case lvl > 0:
		h.stats.Hits[lvl]++
		memTime = h.fill[lvl]
		cost = h.fillUpper(addr, lvl-1, false)
	default:
		h.stats.MemAccesses++
		memTime = h.memFill
		cost = h.fillUpper(addr, len(h.caches)-1, false)
	}
	return cost, memTime
}

// sideWriteCost is sideReadCost for a write-allocate store stream.
func (h *Hierarchy) sideWriteCost(addr uint64) (cost, memTime ptime.Duration) {
	lvl := h.level(addr, true)
	switch {
	case lvl == 0:
		h.stats.Hits[0]++
	case lvl > 0:
		h.stats.Hits[lvl]++
		memTime = h.fill[lvl]
		cost = h.fillUpper(addr, lvl-1, true)
	default:
		// Read-for-ownership fill from memory.
		h.stats.MemAccesses++
		memTime = h.memFill
		cost = h.fillUpper(addr, len(h.caches)-1, true)
	}
	return cost, memTime
}

// StreamRead models the unrolled read-and-sum loop over [addr,
// addr+bytes): sequential word loads with enough independent work that
// fills pipeline. Per chunk the cost is the larger of the instruction
// issue time and the line fill time (loads and fills overlap under
// sequential access), unlike Load which charges the full dependent-load
// latency.
func (h *Hierarchy) StreamRead(addr uint64, bytes int64) {
	if bytes <= 0 {
		h.epoch++
		return
	}
	p, hit := h.beginPass(Key{Owner: h, Args: [6]uint64{opRead, addr, uint64(bytes)}}, h.chunks(bytes), 1)
	if hit {
		return
	}
	end := addr + uint64(bytes)
	page := uint64(h.PageSize())
	var total ptime.Duration
	lastPage, havePage := uint64(0), false
	for a := addr; a < end; a += uint64(h.chunk) {
		// Single stream: the previous probe of this page is necessarily
		// the TLB's most recent touch, so the skip is unconditional.
		if p := a / page; !havePage || p != lastPage {
			total += h.tlbAccess(a)
			lastPage, havePage = p, true
		}
		cost, memTime := h.sideReadCost(a)
		total += cost + maxDur(h.readIssue, memTime)
	}
	h.clk.Advance(total)
	h.endPass(&p, total)
}

// StreamWrite models the unrolled store loop over [addr, addr+bytes).
// With write-allocate caches every missing destination line is read
// before it is written (the paper: "the written cache line will
// typically be read before it is written"), so a pure write moves twice
// the reported bytes. NoWriteAllocate skips the fill and streams stores
// to memory.
func (h *Hierarchy) StreamWrite(addr uint64, bytes int64) {
	if bytes <= 0 {
		h.epoch++
		return
	}
	p, hit := h.beginPass(Key{Owner: h, Args: [6]uint64{opWrite, addr, uint64(bytes)}}, h.chunks(bytes), 1)
	if hit {
		return
	}
	end := addr + uint64(bytes)
	page := uint64(h.PageSize())
	bypass := h.cfg.NoWriteAllocate
	var total ptime.Duration
	lastPage, havePage := uint64(0), false
	for a := addr; a < end; a += uint64(h.chunk) {
		if p := a / page; !havePage || p != lastPage {
			total += h.tlbAccess(a)
			lastPage, havePage = p, true
		}
		var memTime ptime.Duration
		if bypass {
			// Stores stream past the caches straight to memory.
			h.stats.MemAccesses++
			h.stats.Writebacks++
			memTime = h.memWB
		} else {
			var cost ptime.Duration
			cost, memTime = h.sideWriteCost(a)
			total += cost
		}
		total += maxDur(h.writeIssue, memTime)
	}
	h.clk.Advance(total)
	h.endPass(&p, total)
}

// StreamCost is one streaming pass's exact cost, split by how it
// depends on DRAM timing. Cache state changes with addresses alone
// (replacement is LRU and no time feeds back into it), so a pass's
// hits, DRAM fills and DRAM writebacks are the same under every
// DRAMConfig, and under fill time F and writeback time W the pass
// costs exactly
//
//	Fixed + Fills*max(Issue, F) + Writebacks*W
//
// integer picoseconds, F and W converted as New converts them.
type StreamCost struct {
	// Fixed is everything independent of DRAM timing: TLB walks,
	// lower-level cache fills and the issue time of chunks that hit.
	Fixed ptime.Duration
	// Issue is the loop's per-chunk instruction issue time, which a
	// DRAM fill overlaps.
	Issue ptime.Duration
	// Fills counts chunks filled from DRAM.
	Fills int64
	// Writebacks counts dirty lines retired to DRAM.
	Writebacks int64
}

// At returns the pass's cost under DRAM timing d.
func (c StreamCost) At(d DRAMConfig) ptime.Duration {
	fill, wb := ptime.FromNS(d.fill()), ptime.FromNS(d.writeback())
	return c.Fixed + ptime.Duration(c.Fills)*maxDur(c.Issue, fill) + ptime.Duration(c.Writebacks)*wb
}

// MeasureStream runs StreamRead over [addr, addr+bytes), or StreamWrite
// when write is set, exactly as those calls do, and returns the pass's
// StreamCost. It refuses hierarchies with NoWriteAllocate or HWCopy:
// their stores retire to memory inside the per-chunk overlap, where the
// writeback time is not a separate term.
func (h *Hierarchy) MeasureStream(addr uint64, bytes int64, write bool) (StreamCost, error) {
	if h.cfg.NoWriteAllocate || h.cfg.HWCopy {
		return StreamCost{}, fmt.Errorf("simmem: stream cost is exact only with write-allocate stores and no hardware copy")
	}
	start, before := h.clk.Now(), h.Stats()
	c := StreamCost{Issue: h.readIssue}
	if write {
		c.Issue = h.writeIssue
		h.StreamWrite(addr, bytes)
	} else {
		h.StreamRead(addr, bytes)
	}
	d := h.Stats()
	d.sub(before)
	c.Fills, c.Writebacks = d.MemAccesses, d.Writebacks
	c.Fixed = h.clk.Now() - start - ptime.Duration(c.Fills)*maxDur(c.Issue, h.memFill) - ptime.Duration(c.Writebacks)*h.memWB
	return c, nil
}

// StreamCopy models bcopy: read the source, write the destination.
// Without hardware assistance a copy moves three memory streams (source
// read, destination read-for-ownership, destination writeback); with
// Config.HWCopy the destination stores bypass the cache (SPARC V9-style
// block moves) and only two streams move.
func (h *Hierarchy) StreamCopy(src, dst uint64, bytes int64) {
	h.StreamCopyMode(src, dst, bytes, h.cfg.HWCopy)
}

// StreamCopyMode is StreamCopy with an explicit hardware-assist choice,
// so a backend can model a hardware-assisted libc bcopy next to a
// plain hand-unrolled copy loop on the same machine (the Sun libc case
// in Table 2).
func (h *Hierarchy) StreamCopyMode(src, dst uint64, bytes int64, hwCopy bool) {
	if bytes <= 0 {
		h.epoch++
		return
	}
	op := uint64(opCopy)
	if hwCopy {
		op = opCopyHW
	}
	p, hit := h.beginPass(Key{Owner: h, Args: [6]uint64{op, src, dst, uint64(bytes)}}, 2*h.chunks(bytes), 1)
	if hit {
		return
	}
	page := uint64(h.PageSize())
	hoist := h.tlbHoistStreams >= 2
	var total ptime.Duration
	var lastSP, lastDP uint64
	haveSP, haveDP := false, false
	for off := int64(0); off < bytes; off += h.chunk {
		sa := src + uint64(off)
		da := dst + uint64(off)

		// Source side: same as a streaming read but with the copy
		// loop's instruction mix charged once for the pair below.
		var cost ptime.Duration
		if p := sa / page; !hoist || !haveSP || p != lastSP {
			cost += h.tlbAccess(sa)
			lastSP, haveSP = p, true
		}
		c, memTime := h.sideReadCost(sa)
		cost += c

		// Destination side.
		if p := da / page; !hoist || !haveDP || p != lastDP {
			cost += h.tlbAccess(da)
			lastDP, haveDP = p, true
		}
		if hwCopy {
			h.stats.MemAccesses++
			h.stats.Writebacks++
			memTime += h.memWB
		} else {
			dc, dmem := h.sideWriteCost(da)
			cost += dc
			memTime += dmem
		}

		total += cost + maxDur(h.copyIssue, memTime)
	}
	h.clk.Advance(total)
	h.endPass(&p, total)
}

// StreamKernel models one pass of a McCalpin STREAM kernel (§7: "We
// will probably incorporate part or all of this benchmark into
// lmbench"): every source stream is read, the destination stream is
// written with write-allocate semantics, and opsPerWord arithmetic
// operations issue per destination word. Copy has one source and 0
// extra ops, Scale one source and a multiply, Add two sources and an
// add, Triad two sources and a fused multiply-add.
func (h *Hierarchy) StreamKernel(dst uint64, srcs []uint64, bytes int64, opsPerWord int) {
	if bytes <= 0 {
		h.epoch++
		return
	}
	// The memo key holds at most two source addresses; kernels with more
	// sources opt out of it.
	k := Key{Owner: h, Args: [6]uint64{opKernel + uint64(len(srcs)), dst, 0, 0, uint64(bytes), uint64(opsPerWord)}}
	probes := int64(0)
	if len(srcs) <= 2 {
		copy(k.Args[2:4], srcs)
		probes = int64(len(srcs)+1) * h.chunks(bytes)
	}
	p, hit := h.beginPass(k, probes, 1)
	if hit {
		return
	}
	if opsPerWord < 1 {
		opsPerWord = 1
	}
	issue := h.cpu.OpTime(h.chunkWords * int64(opsPerWord))
	page := uint64(h.PageSize())
	hoist := h.tlbHoistStreams >= len(srcs)+1
	// Per-stream page tracking lives on the stack for the STREAM
	// kernels' one or two sources.
	var pageBuf [4]uint64
	var haveBuf [4]bool
	lastPage, havePage := pageBuf[:], haveBuf[:]
	if n := len(srcs) + 1; n > len(pageBuf) {
		lastPage, havePage = make([]uint64, n), make([]bool, n)
	}
	var total ptime.Duration
	for off := int64(0); off < bytes; off += h.chunk {
		var cost, memTime ptime.Duration
		for i, src := range srcs {
			sa := src + uint64(off)
			if p := sa / page; !hoist || !havePage[i] || p != lastPage[i] {
				cost += h.tlbAccess(sa)
				lastPage[i], havePage[i] = p, true
			}
			c, mem := h.sideReadCost(sa)
			cost += c
			memTime += mem
		}
		da := dst + uint64(off)
		di := len(srcs)
		if p := da / page; !hoist || !havePage[di] || p != lastPage[di] {
			cost += h.tlbAccess(da)
			lastPage[di], havePage[di] = p, true
		}
		dc, dmem := h.sideWriteCost(da)
		cost += dc
		memTime += dmem
		total += cost + maxDur(issue, memTime)
	}
	h.clk.Advance(total)
	h.endPass(&p, total)
}

func maxDur(a, b ptime.Duration) ptime.Duration {
	if a > b {
		return a
	}
	return b
}

// Chase is the §6.2 pointer-chase state: a circular list of addresses
// base, base+stride, ... wrapping at size, walked with dependent loads.
//
//	mov r4,(r4)   # C code: p = *p;
type Chase struct {
	h      *Hierarchy
	base   uint64
	size   int64
	stride int64
	off    int64
	// period is the number of loads after which the offset repeats:
	// size / gcd(size, stride).
	period int64
}

// NewChase prepares a pointer chase over [base, base+size) with the
// given stride. Stride and size are clamped to at least one word.
func (h *Hierarchy) NewChase(base uint64, size, stride int64) *Chase {
	if stride < int64(h.cfg.WordSize) {
		stride = int64(h.cfg.WordSize)
	}
	if size < stride {
		size = stride
	}
	g, r := size, stride
	for r != 0 {
		g, r = r, g%r
	}
	return &Chase{h: h, base: base, size: size, stride: stride, period: size / g}
}

// Walk performs n dependent loads, continuing from where the previous
// call stopped (the list wraps). The per-load costs accumulate locally
// and charge the clock once.
//
// Each whole lap is a pass of the steady-state memo under the chase's
// own key: a lap followed by another, or chained on the chase's last
// lap with nothing else touching the hierarchy in between, is verified
// against a snapshot, and once one lap left the canonical state
// unchanged the remaining whole laps are charged in one step. The tail
// is simulated. The clock, counters, offset and observable cache state
// are exactly those of the per-load loop.
func (c *Chase) Walk(n int64) {
	h := c.h
	k := Key{Owner: c}
	var total ptime.Duration
	for laps := n / c.period; laps > 0; laps-- {
		p, hit := h.beginPass(k, c.period, laps)
		if hit {
			n -= laps * c.period
			break
		}
		if p.m == nil {
			break // too small to memoise: every lap is simulated below
		}
		lap := c.walk(c.period)
		h.endPass(&p, lap)
		total += lap
		n -= c.period
	}
	total += c.walk(n)
	h.clk.Advance(total)
	h.continuePass(k)
}

// walk simulates n loads and returns their summed cost.
func (c *Chase) walk(n int64) ptime.Duration {
	h := c.h
	var total ptime.Duration
	for i := int64(0); i < n; i++ {
		total += h.loadCost(c.base + uint64(c.off))
		c.off += c.stride
		if c.off >= c.size {
			c.off -= c.size
		}
	}
	return total
}

// Length returns the number of elements in the circular list,
// ceil(size/stride). When stride does not divide size the walk's
// offsets wrap unevenly, and the lap after which they repeat (the
// offset period size/gcd(size, stride)) is longer than Length.
func (c *Chase) Length() int64 { return (c.size + c.stride - 1) / c.stride }

// WalkDirty performs n dependent loads, storing back to each element
// after loading it, so every line the walk evicts is modified. This is
// the §7 "dirty-read latency" workload: reads whose victims carry
// write-back costs.
func (c *Chase) WalkDirty(n int64) {
	h := c.h
	h.epoch++
	var total ptime.Duration
	for i := int64(0); i < n; i++ {
		addr := c.base + uint64(c.off)
		total += h.loadCost(addr)
		total += h.storeCost(addr)
		c.off += c.stride
		if c.off >= c.size {
			c.off -= c.size
		}
	}
	h.clk.Advance(total)
}

// WalkWrite performs n strided stores (the §7 "write latency"
// workload); addresses come from arithmetic, not loaded pointers, as a
// store chain cannot be made dependent.
func (c *Chase) WalkWrite(n int64) {
	h := c.h
	h.epoch++
	var total ptime.Duration
	for i := int64(0); i < n; i++ {
		total += h.storeCost(c.base + uint64(c.off))
		c.off += c.stride
		if c.off >= c.size {
			c.off -= c.size
		}
	}
	h.clk.Advance(total)
}

// PageChase walks the first word of each page in a scattered page
// list — the §7 TLB-measurement workload: one line per page keeps the
// cache footprint tiny while the page count sweeps past the TLB size.
type PageChase struct {
	h     *Hierarchy
	pages []uint64
	idx   int
}

// NewPageChase builds a chase over the given pages.
func (h *Hierarchy) NewPageChase(pages []uint64) *PageChase {
	return &PageChase{h: h, pages: pages}
}

// Walk performs n loads, one per page, wrapping around the list.
func (p *PageChase) Walk(n int64) {
	if len(p.pages) == 0 {
		return
	}
	h := p.h
	h.epoch++
	var total ptime.Duration
	for i := int64(0); i < n; i++ {
		total += h.loadCost(p.pages[p.idx])
		p.idx++
		if p.idx == len(p.pages) {
			p.idx = 0
		}
	}
	h.clk.Advance(total)
}

// Length returns the page count.
func (p *PageChase) Length() int64 { return int64(len(p.pages)) }
