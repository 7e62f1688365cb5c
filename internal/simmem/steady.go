package simmem

import (
	"sync"

	"repro/internal/ptime"
)

// The steady-state memo (see DESIGN.md §6b). A pass — one lap of a
// pointer chase, one streaming call, one composite run through Repeat —
// that is repeated with nothing else touching the hierarchy in between
// replays the same hits, misses, evictions and costs once one
// repetition leaves the hierarchy's canonical state — per set, the
// valid lines in recency order with their dirty bits, plus whether the
// MRU hint names a valid line — exactly where it found it. The pass
// memo below verifies that once and then charges every further
// repetition in one step: the laps of Chase.Walk and the repeated
// Stream* and Repeat calls alike.

// maxCanonAssoc bounds the ways of a set-associative set the canonical
// encoding sorts on the stack; wider sets are never extrapolated.
const maxCanonAssoc = 64

// canonPool recycles the one snapshot buffer a verification needs, so
// no hierarchy keeps a copy of its state alive between walks.
var canonPool = sync.Pool{New: func() any { return new([]uint32) }}

// canonBuf takes a pooled snapshot buffer with room for the longest
// canonical encoding the hierarchy can produce — per set a header and
// its lines, per fully associative level one header and its ways — so
// filling it never grows it.
func (h *Hierarchy) canonBuf() *[]uint32 {
	words := func(c *cache) int {
		if c.full {
			return 1 + c.assoc
		}
		return int(c.nsets) + len(c.lines)
	}
	n := 0
	for _, c := range h.caches {
		n += words(c)
	}
	if h.tlb != nil {
		n += words(h.tlb.c)
	}
	bp := canonPool.Get().(*[]uint32)
	if cap(*bp) < n {
		*bp = make([]uint32, 0, n)
	}
	return bp
}

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

// Key names one pass for the pass memo. Owner is compared by identity,
// so it should be the pointer whose pass this is; Args are the pass's
// exact arguments, unused ones zero. No hashing is involved: two calls
// chain only when every field is equal.
type Key struct {
	Owner any
	Args  [6]uint64
}

// Primitive pass kinds, Args[0] of a Key whose Owner is the hierarchy.
const (
	opRead = iota + 1
	opWrite
	opCopy
	opCopyHW
	opKernel // + number of source streams
)

// maxPassDepth bounds the Repeat nesting that keeps its own memo slot;
// deeper calls simulate without bookkeeping.
const maxPassDepth = 4

// passMemo is one nesting depth's memo slot: the key of the last pass at
// that depth, the epoch it left behind and, once a chained repetition
// came back to the canonical state it started from, that repetition's
// clock and counter deltas.
type passMemo struct {
	key    Key
	epoch  uint64
	steady bool
	cost   ptime.Duration
	delta  Stats
}

// pass is one memoised call in flight.
type pass struct {
	m      *passMemo // nil: no bookkeeping
	snap   *[]uint32 // the canonical state at entry, while verifying
	before Stats
}

// beginPass opens the first of reps back-to-back repetitions of a pass
// of the given probe count under key k. When the slot holds k at the
// current epoch with a verified steady repetition, all reps are charged
// here and hit reports true. Otherwise the caller simulates one
// repetition and closes it with endPass; it is verified against a
// snapshot when it chains on the slot's last pass or when another
// repetition follows it. Passes too small for a snapshot to pay
// (probes <= 0 opts out) only bump the epoch.
func (h *Hierarchy) beginPass(k Key, probes, reps int64) (p pass, hit bool) {
	if probes <= 0 || h.depth >= maxPassDepth || !h.canonPays(probes) {
		h.epoch++
		return p, false
	}
	m := &h.memo[h.depth]
	p.m = m
	chained := m.key == k && m.epoch == h.epoch
	if chained && m.steady {
		h.clk.Advance(ptime.Duration(reps) * m.cost)
		h.addLaps(&m.delta, reps)
		h.passHits += reps
		h.epoch++
		m.epoch = h.epoch
		return p, true
	}
	if !chained {
		m.key, m.steady = k, false
	}
	if chained || reps > 1 {
		bp := h.canonBuf()
		w := canonWalker{buf: (*bp)[:0], ok: true}
		ok := h.canon(&w)
		*bp = w.buf
		if ok {
			p.snap, p.before = bp, h.Stats()
		} else {
			canonPool.Put(bp)
		}
	}
	h.epoch++
	return p, false
}

// endPass closes a simulated pass that cost cost: a verifying pass that
// left the canonical state unchanged becomes the slot's steady charge.
func (h *Hierarchy) endPass(p *pass, cost ptime.Duration) {
	m := p.m
	if m == nil {
		return
	}
	if p.snap != nil {
		if h.canon(&canonWalker{buf: *p.snap, check: true, ok: true}) {
			m.delta = h.Stats()
			m.delta.sub(p.before)
			m.cost = cost
			m.steady = true
		}
		canonPool.Put(p.snap)
	}
	m.epoch = h.epoch
}

// continuePass bumps the epoch after a call that ran part of k's next
// repetition — a chase's partial lap — and keeps a slot that was current
// under k current: a fixed point of k's lap is still one after any run
// of k's own loads, for the lap starting where they stop (DESIGN.md
// §6b).
func (h *Hierarchy) continuePass(k Key) {
	h.epoch++
	if h.depth < maxPassDepth {
		if m := &h.memo[h.depth]; m.key == k && m.epoch+1 == h.epoch {
			m.epoch = h.epoch
		}
	}
}

// PassHits returns how many passes the pass memo has charged without
// simulating them — fast-path effectiveness, not a cost-model quantity.
func (h *Hierarchy) PassHits() int64 { return h.passHits }

// Repeat runs fn, a composite pass named by key that streams about work
// bytes through the hierarchy. When the previous pass at this nesting
// depth had the same key, nothing else has touched the hierarchy since,
// and one such repetition already left the canonical state unchanged,
// fn is not run: its clock and counter deltas are charged in one step.
// Calls made inside fn keep their own memo slot one level deeper.
//
// The caller guarantees that fn charges time only to this hierarchy's
// clock and that everything fn does — its clock charges, its effect on
// the hierarchy and any state of its own — is a function of key and the
// hierarchy's canonical state alone.
func (h *Hierarchy) Repeat(key Key, work int64, fn func()) {
	p, hit := h.beginPass(key, work/h.chunk, 1)
	if hit {
		return
	}
	start := h.clk.Now()
	h.depth++
	fn()
	h.depth--
	h.endPass(&p, h.clk.Now()-start)
}
