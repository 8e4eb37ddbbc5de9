// Package cachesim explores the paper's Section 6 conjecture: "we
// conjecture that cache-oblivious algorithms can be obtained by simulating
// network-oblivious ones using a suitable adaptation of the technique
// developed in Pietracaprina et al. [2006]".
//
// It provides the ideal cache model IC(M, B) of the cache-oblivious
// framework (fully associative, LRU, M words in lines of B words) and a
// sequential simulator that executes a recorded M(v) trace VP by VP,
// superstep by superstep — the natural folding-to-one-processor schedule —
// touching each VP's context and writing each message into its
// destination's mailbox.  The cache-miss count of this simulation is the
// I/O complexity of the derived sequential algorithm.
//
// Two simulators consume that address stream.  Cache with
// SimulateSource replays it word by word into one IC(M, B) cache; it is
// the reference.  CurveSim, which every miss-curve consumer uses,
// classifies the same stream against a whole sweep of cache sizes in one
// pass, at the cost of one LRU step per run of accesses to a distinct
// line over an O(v) slot table, with miss counts identical to the
// reference's.
//
// The measurable content of the conjecture (experiment E16): algorithms
// whose supersteps have fine labels (communication confined to small
// clusters) produce address streams with locality, so the derived
// sequential algorithm incurs few misses once a cluster's working set fits
// in M — e.g. the recursive FFT's simulation beats the iterative
// butterfly's over a wide band of cache sizes, mirroring exactly the
// cache-oblivious/cache-aware FFT gap.
package cachesim

import (
	"container/list"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"

	"netoblivious/internal/core"
)

// ErrNoPairs reports a simulation request over a trace recorded without
// message pairs: there is no address stream to simulate.  Callers
// surface it with re-record guidance (`nobl stat -cache` tells the user
// to re-run `nobl trace -record`).
var ErrNoPairs = errors.New("cachesim: trace must be recorded with RecordMessages (message pairs are missing)")

// Cache is an ideal cache IC(M, B): fully associative, LRU replacement.
type Cache struct {
	mWords, bWords int
	capacity       int // number of lines
	lines          map[int64]*list.Element
	lru            *list.List // front = most recent; values are line ids

	// Misses counts line fetches; Accesses counts word accesses.
	Misses, Accesses int64
}

// New builds an IC(M, B) cache; M and B are in words, B must divide M.
func New(mWords, bWords int) (*Cache, error) {
	if mWords <= 0 || bWords <= 0 || mWords%bWords != 0 {
		return nil, fmt.Errorf("cachesim: invalid cache M=%d B=%d", mWords, bWords)
	}
	return &Cache{
		mWords:   mWords,
		bWords:   bWords,
		capacity: mWords / bWords,
		lines:    make(map[int64]*list.Element),
		lru:      list.New(),
	}, nil
}

// Access touches one word of memory, updating LRU state and miss counts.
func (c *Cache) Access(addr int64) (miss bool) {
	c.Accesses++
	line := addr / int64(c.bWords)
	if el, ok := c.lines[line]; ok {
		c.lru.MoveToFront(el)
		return false
	}
	c.Misses++
	if c.lru.Len() == c.capacity {
		back := c.lru.Back()
		delete(c.lines, back.Value.(int64))
		c.lru.Remove(back)
	}
	c.lines[line] = c.lru.PushFront(line)
	return true
}

// AccessRange touches words [addr, addr+n).
func (c *Cache) AccessRange(addr int64, n int) {
	for i := 0; i < n; i++ {
		c.Access(addr + int64(i))
	}
}

// SimStats summarizes a trace simulation.  Misses and Accesses count
// this simulation only: SimulateTrace snapshots the cache's cumulative
// counters on entry and reports deltas, so one Cache can be reused
// across traces (warm-cache studies) without conflating runs.
type SimStats struct {
	// Misses is the IC(M,B) miss count of the sequential execution.
	Misses int64
	// Accesses is the total word accesses.
	Accesses int64
	// Words is the simulated memory footprint in words.
	Words int64
}

// stepSchedule is the reusable per-superstep driver of the sequential
// simulation: each VP in ascending order touches its ctxWords-word
// context, then writes one word into the destination mailbox of every
// message it sends.  Mailboxes are laid out next to their owner's
// context, so locality of communication translates into locality of
// reference — the mechanism behind the Section 6 conjecture.  The
// per-source buckets are retained across supersteps, so driving a
// streamed trace allocates O(largest superstep), not O(trace).
type stepSchedule struct {
	v        int
	ctxWords int
	region   int64 // per-VP region: context followed by a mailbox slot
	bySrc    [][]int32
}

func newStepSchedule(v, ctxWords int) (*stepSchedule, error) {
	if ctxWords < 1 {
		return nil, fmt.Errorf("cachesim: ctxWords must be positive")
	}
	if v < 1 {
		return nil, fmt.Errorf("cachesim: invalid machine width v=%d", v)
	}
	return &stepSchedule{v: v, ctxWords: ctxWords, region: int64(ctxWords + 1), bySrc: make([][]int32, v)}, nil
}

// bucket groups one superstep's messages by source, preserving their
// order within each source.  Pairs order within a superstep is
// unspecified, so the per-VP schedule needs this grouping first.  A pair
// naming a VP outside the machine is rejected: the address it would
// touch lies outside the simulated memory.
func (ss *stepSchedule) bucket(rec *core.StepRec) error {
	if rec.Messages > 0 && rec.Pairs.Len() == 0 {
		return ErrNoPairs
	}
	for i := range ss.bySrc {
		ss.bySrc[i] = ss.bySrc[i][:0]
	}
	var bad error
	for src, dst := range rec.Pairs.All() {
		if uint32(src) >= uint32(ss.v) || uint32(dst) >= uint32(ss.v) {
			bad = fmt.Errorf("cachesim: message pair (%d, %d) outside the machine of v=%d", src, dst, ss.v)
			break
		}
		ss.bySrc[src] = append(ss.bySrc[src], dst)
	}
	return bad
}

// run feeds one superstep's address stream to touch, word by word.
func (ss *stepSchedule) run(rec *core.StepRec, touch func(addr int64)) error {
	if err := ss.bucket(rec); err != nil {
		return err
	}
	for w := 0; w < ss.v; w++ {
		base := int64(w) * ss.region
		for i := 0; i < ss.ctxWords; i++ {
			touch(base + int64(i))
		}
		for _, dst := range ss.bySrc[w] {
			touch(int64(dst)*ss.region + int64(ss.ctxWords))
		}
	}
	return nil
}

// SimulateTrace executes the recorded algorithm sequentially on one
// processor with an IC(M, B) cache (the trace must be recorded with
// RecordMessages); see stepSchedule for the access model.
func SimulateTrace(tr *core.Trace, ctxWords int, cache *Cache) (SimStats, error) {
	return SimulateSource(tr.Source(), ctxWords, cache)
}

// SimulateSource is SimulateTrace over a streaming TraceSource, so the
// simulation's memory footprint is O(largest superstep) no matter how
// long the trace is.  It does not Close the source.
func SimulateSource(src core.TraceSource, ctxWords int, cache *Cache) (SimStats, error) {
	ss, err := newStepSchedule(src.V(), ctxWords)
	if err != nil {
		return SimStats{}, err
	}
	startMisses, startAccesses := cache.Misses, cache.Accesses
	touch := func(addr int64) { cache.Access(addr) }
	for {
		rec, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return SimStats{}, err
		}
		if err := ss.run(rec, touch); err != nil {
			return SimStats{}, err
		}
	}
	return SimStats{
		Misses:   cache.Misses - startMisses,
		Accesses: cache.Accesses - startAccesses,
		Words:    int64(ss.v) * ss.region,
	}, nil
}

// curveNode is one resident cache line of the CurveSim's shared LRU
// stack, linked by arena index (-1 ends the list).
type curveNode struct {
	line       int32
	band       int32
	prev, next int32
}

// CurveSim simulates every cache size of a sweep in a single traversal
// of the address stream, exploiting the inclusion property of fully
// associative LRU (Mattson's stack algorithm): for a fixed line size, a
// cache of capacity C holds exactly the top C lines of one global LRU
// stack, so one stack plus one marker per capacity classifies every
// access for all sizes at once.  Each resident line carries its band —
// the index of the smallest cache in the sweep that still holds it —
// and markers are nudged in O(sizes) per stack update, turning the
// O(sizes × trace) per-size re-simulation into O(trace).
//
// Cost model: one LRU step per run of accesses to a distinct line, not
// one lookup per word.  An access to the line on top of the stack is a
// band-0 hit that changes nothing, so Step touches each VP context once
// per line and counts the line's remaining words as such hits.  Any
// other access finds its line through a slot table indexed by line
// number — ⌈v·(ctxWords+1)/B⌉ int32 slots, sized once, the same O(v) as
// the per-source message buckets — pointing into a node arena of at
// most the largest capacity in lines.
type CurveSim struct {
	ss     *stepSchedule
	bWords int
	sizes  []int // the sweep, in caller order
	caps   []int // strictly increasing unique line capacities
	capIdx []int // sizes[i] -> index into caps

	slot       []int32     // slot[line]: 1 + arena index of a resident line, 0 otherwise
	nodes      []curveNode // resident lines; never longer than the largest capacity
	head, tail int32       // arena indices; -1 while the stack is empty
	headLine   int32       // line on top of the stack; -1 while empty
	markers    []int32     // markers[i]: node at stack position caps[i]; -1 while shorter
	reached    int         // markers[:reached] are defined: the stack has grown to caps[reached-1]

	hits     []int64 // hits[b]: accesses to lines resident with band b
	cold     int64   // accesses missing even the largest cache
	accesses int64
	steps    int
}

// NewCurveSim builds a single-pass simulator for a machine of v VPs
// over the given cache sizes (words); B is the line length in words and
// every size must be a positive multiple of it.
func NewCurveSim(v, ctxWords, bWords int, sizes []int) (*CurveSim, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("cachesim: empty cache-size sweep")
	}
	caps := make([]int, len(sizes))
	for i, m := range sizes {
		if _, err := New(m, bWords); err != nil {
			return nil, err
		}
		caps[i] = m / bWords
	}
	lines := (int64(v)*int64(ctxWords+1) + int64(bWords) - 1) / int64(bWords)
	if v > 0 && ctxWords > 0 && lines > math.MaxInt32 {
		return nil, fmt.Errorf("cachesim: a machine of v=%d VPs spans %d cache lines, beyond the simulator's %d", v, lines, math.MaxInt32)
	}
	ss, err := newStepSchedule(v, ctxWords)
	if err != nil {
		return nil, err
	}
	sort.Ints(caps)
	caps = slices.Compact(caps)
	cs := &CurveSim{ss: ss, bWords: bWords, sizes: sizes, caps: caps, capIdx: make([]int, len(sizes))}
	for i, m := range sizes {
		cs.capIdx[i] = sort.SearchInts(caps, m/bWords)
	}
	cs.slot = make([]int32, lines)
	cs.nodes = make([]curveNode, 0, min(int64(caps[len(caps)-1]), lines))
	cs.head, cs.tail, cs.headLine = -1, -1, -1
	cs.markers = make([]int32, len(caps))
	for i := range cs.markers {
		cs.markers[i] = -1
	}
	cs.hits = make([]int64, len(caps))
	return cs, nil
}

func (cs *CurveSim) pushFront(n int32) {
	nd := &cs.nodes[n]
	nd.prev = -1
	nd.next = cs.head
	if cs.head >= 0 {
		cs.nodes[cs.head].prev = n
	}
	cs.head = n
	cs.headLine = nd.line
	if cs.tail < 0 {
		cs.tail = n
	}
}

func (cs *CurveSim) unlink(n int32) {
	nd := &cs.nodes[n]
	if nd.prev >= 0 {
		cs.nodes[nd.prev].next = nd.next
	} else {
		cs.head = nd.next
	}
	if nd.next >= 0 {
		cs.nodes[nd.next].prev = nd.prev
	} else {
		cs.tail = nd.prev
	}
}

// touch classifies one access to line against every cache size at once.
func (cs *CurveSim) touch(line int32) {
	if line == cs.headLine {
		cs.hits[0]++ // the top of the stack: no state changes
		return
	}
	if s := cs.slot[line]; s != 0 {
		n := s - 1
		b := cs.nodes[n].band
		cs.hits[b]++
		// Markers whose capacity lies strictly in front of n's position
		// see their element slide one position down the stack.  A
		// marker's prev is -1 exactly when the capacity is a single line
		// (the marker is the head); that marker is re-pointed at the new
		// head below.
		for i := int32(0); i < b; i++ {
			m := cs.markers[i]
			cs.markers[i] = cs.nodes[m].prev
			cs.nodes[m].band = i + 1
		}
		// When n is itself the marker of its band, the element now at
		// that capacity is n's predecessor.
		if cs.markers[b] == n {
			cs.markers[b] = cs.nodes[n].prev
		}
		cs.unlink(n)
		cs.pushFront(n)
		cs.nodes[n].band = 0
		if cs.caps[0] == 1 {
			cs.markers[0] = n
		}
		return
	}
	// A miss for every size in the sweep: cold, or evicted even from the
	// largest cache (inclusion makes those the same class).
	cs.cold++
	for i, m := range cs.markers[:cs.reached] {
		cs.markers[i] = cs.nodes[m].prev
		cs.nodes[m].band = int32(i + 1)
	}
	var n int32
	if len(cs.nodes) == cs.caps[len(cs.caps)-1] {
		n = cs.tail // just slid past the largest capacity: evict and reuse
		cs.unlink(n)
		cs.slot[cs.nodes[n].line] = 0
	} else {
		n = int32(len(cs.nodes))
		cs.nodes = append(cs.nodes, curveNode{})
	}
	cs.nodes[n] = curveNode{line: line}
	cs.pushFront(n)
	cs.slot[line] = n + 1
	// The stack may have just grown to exactly the next capacity,
	// defining that marker for the first time: the tail is at that
	// position, and its band already equals the marker index by the
	// incremental updates above.
	if cs.reached < len(cs.caps) && len(cs.nodes) == cs.caps[cs.reached] {
		cs.markers[cs.reached] = cs.tail
		cs.reached++
	}
	if cs.caps[0] == 1 {
		cs.markers[0] = n
	}
}

// Step folds one superstep's address stream into the curve: each VP in
// ascending order touches its context, then the mailbox word of every
// message it sends (the stepSchedule access model, one LRU step per
// line rather than per word).
func (cs *CurveSim) Step(rec *core.StepRec) error {
	ss := cs.ss
	if err := ss.bucket(rec); err != nil {
		return err
	}
	bw := int64(cs.bWords)
	ctx := int64(ss.ctxWords)
	var msgs int64
	for w := 0; w < ss.v; w++ {
		base := int64(w) * ss.region
		end := base + ctx
		for a := base; a < end; {
			line := a / bw
			next := min((line+1)*bw, end)
			cs.touch(int32(line))
			cs.hits[0] += next - a - 1 // the line's remaining words hit the top of the stack
			a = next
		}
		for _, dst := range ss.bySrc[w] {
			cs.touch(int32((int64(dst)*ss.region + ctx) / bw))
		}
		msgs += int64(len(ss.bySrc[w]))
	}
	cs.accesses += int64(ss.v)*ctx + msgs
	cs.steps++
	return nil
}

// Misses returns the miss count per sweep entry, in the order the sizes
// were given: an access misses cache i exactly when it was absent from
// the stack or resident with a band beyond i.
func (cs *CurveSim) Misses() []int64 {
	suffix := cs.cold
	perCap := make([]int64, len(cs.caps))
	for b := len(cs.caps) - 1; b >= 0; b-- {
		perCap[b] = suffix // misses for capacity index b: every hit in a band above it
		suffix += cs.hits[b]
	}
	out := make([]int64, len(cs.sizes))
	for i, ci := range cs.capIdx {
		out[i] = perCap[ci]
	}
	return out
}

// Accesses returns the total word accesses simulated, identical for
// every size of the sweep (they share one address stream).
func (cs *CurveSim) Accesses() int64 { return cs.accesses }

// Words returns the simulated memory footprint in words.
func (cs *CurveSim) Words() int64 { return int64(cs.ss.v) * cs.ss.region }

// MissCurve simulates the trace across a sweep of cache sizes (words),
// returning the miss count for each.  B is the line length in words.
// One traversal drives every size simultaneously; see CurveSim.
func MissCurve(tr *core.Trace, ctxWords, bWords int, sizes []int) ([]int64, error) {
	return MissCurveSource(tr.Source(), ctxWords, bWords, sizes)
}

// MissCurveSource is MissCurve over a streaming TraceSource.  It does
// not Close the source.
func MissCurveSource(src core.TraceSource, ctxWords, bWords int, sizes []int) ([]int64, error) {
	cs, err := NewCurveSim(src.V(), ctxWords, bWords, sizes)
	if err != nil {
		return nil, err
	}
	for {
		rec, err := src.Next()
		if err == io.EOF {
			return cs.Misses(), nil
		}
		if err != nil {
			return nil, err
		}
		if err := cs.Step(rec); err != nil {
			return nil, err
		}
	}
}

// missCurveReference is the pre-single-pass implementation — one full
// re-simulation per size — retained as the oracle for the golden
// equality test of CurveSim.
func missCurveReference(tr *core.Trace, ctxWords, bWords int, sizes []int) ([]int64, error) {
	out := make([]int64, len(sizes))
	for i, m := range sizes {
		c, err := New(m, bWords)
		if err != nil {
			return nil, err
		}
		st, err := SimulateTrace(tr, ctxWords, c)
		if err != nil {
			return nil, err
		}
		out[i] = st.Misses
	}
	return out, nil
}
