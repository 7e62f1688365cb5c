package simmem

import (
	"sync"

	"repro/internal/ptime"
)

// Steady-state lap extrapolation (see DESIGN.md §6b). A pointer chase
// revisits the same addresses in the same order every lap. Once one
// lap leaves the hierarchy's canonical state — per set, the valid lines
// in recency order with their dirty bits, plus whether the MRU hint
// names a valid line — exactly where it found it, every later lap
// replays the same hits, misses, evictions and costs, so Chase.Walk
// charges them in one step instead of simulating them.

// maxCanonAssoc bounds the ways of a set-associative set the canonical
// encoding sorts on the stack; wider sets are never extrapolated.
const maxCanonAssoc = 64

// canonPool recycles the one snapshot buffer a verification needs, so
// no hierarchy keeps a copy of its state alive between walks.
var canonPool = sync.Pool{New: func() any { return new([]uint32) }}

// canonWalker emits a hierarchy's canonical state as a stream of
// uint32 words: it appends them to buf, or, with check set, compares
// them in place against what buf already holds. ok drops to false at
// the first difference or at a tag too wide for the encoding.
type canonWalker struct {
	buf   []uint32
	pos   int
	check bool
	ok    bool
}

func (w *canonWalker) put(v uint32) {
	if !w.check {
		w.buf = append(w.buf, v)
		return
	}
	if w.pos >= len(w.buf) || w.buf[w.pos] != v {
		w.ok = false
	}
	w.pos++
}

// line emits one valid line as tag<<1 | dirty.
func (w *canonWalker) line(l *line) {
	if l.tag >= 1<<31 {
		w.ok = false
		return
	}
	v := uint32(l.tag) << 1
	if l.dirty {
		v |= 1
	}
	w.put(v)
}

// cache emits one level: per set a header (valid-line count << 1, plus
// one bit when the MRU hint names a valid line) and then the valid
// lines from most to least recent. Way positions and absolute lru ticks
// are left out; neither is observable.
func (w *canonWalker) cache(c *cache) {
	if c.full {
		// The list head is the hint and is valid whenever the list is
		// non-empty, so the count says everything the bit would.
		w.put(uint32(c.assoc-len(c.freeW)) << 1)
		for x := c.headW; x >= 0 && w.ok; x = c.nextW[x] {
			w.line(&c.lines[x])
		}
		return
	}
	if c.assoc > maxCanonAssoc {
		w.ok = false
		return
	}
	var order [maxCanonAssoc]int
	assoc := uint64(c.assoc)
	for s := uint64(0); s < c.nsets && w.ok; s++ {
		set := c.lines[s*assoc : (s+1)*assoc]
		n := 0
		for i := range set {
			if !set[i].valid {
				continue
			}
			j := n
			for ; j > 0 && set[order[j-1]].lru < set[i].lru; j-- {
				order[j] = order[j-1]
			}
			order[j] = i
			n++
		}
		hdr := uint32(n) << 1
		// Every lru refresh also moves the hint, so a hint naming a
		// valid line names the set's most recent one.
		if assoc > 1 && set[c.mru[s]].valid {
			hdr |= 1
		}
		w.put(hdr)
		for _, i := range order[:n] {
			w.line(&set[i])
		}
	}
}

// canon walks every cache level and then the TLB, reporting whether
// the walk completed (and, when checking, matched all of buf).
func (h *Hierarchy) canon(w *canonWalker) bool {
	for _, c := range h.caches {
		if w.cache(c); !w.ok {
			return false
		}
	}
	if h.tlb != nil {
		w.cache(h.tlb.c)
	}
	return w.ok && (!w.check || w.pos == len(w.buf))
}

// canonPays reports whether a snapshot, O(lines) in the hierarchy's
// size, is cheap next to simulating one lap of period loads, each of
// which probes up to every level.
func (h *Hierarchy) canonPays(period int64) bool {
	lines := 0
	for _, c := range h.caches {
		lines += len(c.lines)
	}
	if h.tlb != nil {
		lines += len(h.tlb.c.lines)
	}
	return period*int64(len(h.caches)+1) >= int64(lines/4)
}

// sub turns s into its difference from an earlier reading o.
func (s *Stats) sub(o Stats) {
	for i := range s.Hits {
		s.Hits[i] -= o.Hits[i]
	}
	s.MemAccesses -= o.MemAccesses
	s.TLBMisses -= o.TLBMisses
	s.Writebacks -= o.Writebacks
	s.MRUHits -= o.MRUHits
	s.IndexHits -= o.IndexHits
}

// addLaps charges laps copies of the lap delta d to the counters. The
// fast-path hits go to the hierarchy-wide totals, which Stats adds to
// the per-level ones.
func (h *Hierarchy) addLaps(d *Stats, laps int64) {
	for i, v := range d.Hits {
		h.stats.Hits[i] += laps * v
	}
	h.stats.MemAccesses += laps * d.MemAccesses
	h.stats.TLBMisses += laps * d.TLBMisses
	h.stats.Writebacks += laps * d.Writebacks
	h.stats.MRUHits += laps * d.MRUHits
	h.stats.IndexHits += laps * d.IndexHits
}

// verify simulates whole laps while at least two remain, until one
// leaves the canonical state unchanged; it then records that lap's cost
// and counter delta and sets c.steady. It returns the simulated laps'
// cost and the loads still to walk.
func (c *Chase) verify(n int64) (ptime.Duration, int64) {
	h := c.h
	bp := canonPool.Get().(*[]uint32)
	defer canonPool.Put(bp)
	var total ptime.Duration
	for n >= 2*c.period {
		snap := canonWalker{buf: (*bp)[:0], ok: true}
		if !h.canon(&snap) {
			break
		}
		*bp = snap.buf
		before := h.Stats()
		lap := c.walk(c.period)
		total += lap
		n -= c.period
		if h.canon(&canonWalker{buf: *bp, check: true, ok: true}) {
			c.delta = h.Stats()
			c.delta.sub(before)
			c.lapCost = lap
			c.steady = true
			break
		}
	}
	return total, n
}
