package simnet

import (
	"math/bits"
	"slices"
)

// wheelQueue is the default scheduler queue: a calendar queue (a
// self-resizing single-level timing wheel, Brown 1988) over the total event
// order (at, ord). The virtual time axis is divided into power-of-two
// buckets of width 1<<shift nanoseconds; bucket index is
// (at>>shift)&mask, so one "year" spans len(buckets)<<shift nanoseconds
// and far-future events wrap around and share buckets with near ones.
//
// Buckets are intrusive sorted linked lists threaded through the pooled
// events themselves (event.next), so the wheel allocates no container
// nodes: scheduling an event never allocates, and Sim.Reset keeps the
// bucket array as part of the simulator's arena. Each bucket's list is
// kept sorted by (at, ord). The canonical ord key is not monotone in push
// order (a later push can carry a smaller key), so same-timestamp lanes
// are maintained by ordered insertion — with an O(1) append fast path for
// the common case of a push that sorts after the lane tail.
//
// A scan cursor (cur, curEnd) walks bucket windows in time order. The
// queue maintains the invariant that no queued event is earlier than the
// cursor's window start: pushes behind the cursor rewind it. A full
// fruitless rotation (only far-year events remain) falls back to a direct
// minimum scan and jumps the cursor to the winner's window.
//
// The bucket count tracks the population (grow at 1 event/bucket, shrink
// at 1/8) and every resize re-estimates the bucket width from a strided
// sample of queued timestamps (median adjacent gap — see estimateShift),
// aiming at about one event per bucket in the densest region, so a push
// is almost always an O(1) head or tail link and a pop skips at most a
// few empty windows. A walk meter forces a same-size resize when inserts
// start scanning long lane chains anyway (see push), so a width the
// estimator got wrong is corrected after a bounded amount of wasted
// work. Dense message bursts and sparse timer tails both keep O(1)
// amortized push/pop. All sizing decisions are pure functions of the
// queue contents — determinism is unaffected by them.
type wheelQueue struct {
	buckets []wheelBucket
	// occ is the occupancy bitmap (bit i set iff buckets[i] is non-empty):
	// the scan jumps over empty stretches 64 buckets per word instead of
	// probing them one by one, which keeps pop cheap for sparse phases
	// (drains, analytic runs) without giving up the fine bucket width the
	// dense phases want.
	occ     []uint64
	mask    int  // len(buckets)-1; len is a power of two
	shift   uint // bucket width is 1<<shift nanoseconds
	n       int  // queued events
	cur     int  // scan cursor: bucket whose window is being examined
	curEnd  Time // exclusive end of cur's current window
	scratch []*event
	sample  []Time
	// walkSteps meters the lane-head walks in insert since the last
	// resize. A width estimate that leaves a bucket with hundreds of
	// distinct-timestamp lanes (an aligned timer pulse landing a dense
	// burst inside one coarse bucket) turns every mid-bucket insert into
	// a linear scan; once the meter exceeds a multiple of the population,
	// push forces a same-size resize to re-estimate the width from the
	// current contents, so a pathological era costs O(n) wasted steps,
	// not O(n^2). Purely a performance trigger — order is unaffected.
	walkSteps uint64
}

// wheelBucket is one calendar bucket: a (at, ord)-sorted intrusive list
// organized as same-timestamp runs (lanes). head/tail bound the full
// next-linked order; tailRun is the head of the last lane. headAt mirrors
// head.at so the scan never dereferences a cold event just to decide
// whether a bucket's turn has come; it is meaningless when head is nil.
// Two buckets can never share a headAt (equal timestamps always land in
// the same bucket), so headAt alone orders bucket heads.
//
// lastIns is the in-lane insertion finger: the event most recently placed
// by laneInsert's interior walk, valid while it is still queued at
// lastInsAt. Lockstep workloads (n replicas x m instances rescheduling
// aligned proposal pulses) insert thousands of events into one lane in
// ascending ord order; once any higher-ord event sits in that lane the
// O(1) tail append no longer applies and each insert would walk the lane
// from its head — quadratic in the lane length. Resuming from the finger
// makes an ascending burst O(1) amortized again. The finger is a pure
// search hint: it never changes where an event lands, only how the spot
// is found, so pop order — and determinism — are unaffected.
type wheelBucket struct {
	head, tail *event
	tailRun    *event
	lastIns    *event
	headAt     Time
	tailAt     Time // mirrors tail.at; meaningless when tail is nil
	lastInsAt  Time // mirrors lastIns.at; meaningless when lastIns is nil
}

const (
	wheelMinBuckets = 64
	wheelInitShift  = 20 // ~1 ms buckets before the first re-estimation
	wheelMinShift   = 10 // ~1 µs minimum bucket width
	wheelMaxShift   = 33 // ~8.6 s maximum bucket width
)

func newWheelQueue() *wheelQueue {
	w := &wheelQueue{
		buckets: make([]wheelBucket, wheelMinBuckets),
		occ:     make([]uint64, wheelMinBuckets/64),
		mask:    wheelMinBuckets - 1,
		shift:   wheelInitShift,
	}
	w.curEnd = 1 << w.shift
	return w
}

func (w *wheelQueue) len() int { return w.n }

// before is the scheduler's total order.
func before(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.ord < b.ord
}

// insert links e into its bucket, keeping the list sorted by (at, ord).
// The walk steps over whole same-timestamp lanes via the skip chain, so
// its cost is the number of distinct timestamps in the bucket, not the
// number of events — a thousand-event lockstep lane (replica pulse
// batches) is one hop, plus an in-lane walk only when e sorts strictly
// inside an existing lane.
func (w *wheelQueue) insert(e *event) {
	idx := int(uint64(e.at)>>w.shift) & w.mask
	b := &w.buckets[idx]
	w.n++
	if b.head == nil {
		e.next, e.skip, e.runTail = nil, nil, e
		b.head, b.tail, b.tailRun = e, e, e
		b.headAt, b.tailAt = e.at, e.at
		w.occ[idx>>6] |= 1 << uint(idx&63)
		return
	}
	if e.at > b.tailAt {
		// New latest lane.
		e.next, e.skip, e.runTail = nil, nil, e
		b.tail.next = e
		b.tailRun.skip = e
		b.tail, b.tailRun = e, e
		b.tailAt = e.at
		return
	}
	if e.at == b.tailAt && e.ord > b.tail.ord {
		// Append to the tail lane: O(1) — the common fast path (b.tail
		// carries the lane's largest key).
		e.next, e.skip, e.runTail = nil, nil, nil
		b.tail.next = e
		b.tail = e
		b.tailRun.runTail = e
		return
	}
	if e.at < b.headAt {
		// New earliest lane.
		e.next, e.skip, e.runTail = b.head, b.head, e
		b.head = e
		b.headAt = e.at
		return
	}
	// Walk lane heads for e's position, charging the steps to the walk
	// meter that triggers re-estimation (see push).
	var prev *event
	r := b.head
	for r.at < e.at {
		prev = r
		r = r.skip
		w.walkSteps++
	}
	if r.at != e.at {
		// New lane between prev and r (prev is non-nil: e.at > b.headAt
		// was established above).
		pt := prev.runTail
		e.next, e.skip, e.runTail = pt.next, r, e
		pt.next = e
		prev.skip = e
		return
	}
	w.laneInsert(b, prev, r, e)
}

// laneInsert places e inside lane r (whose events share e.at), keeping the
// lane sorted by ord. prev is the head of the preceding lane, nil when r
// heads the bucket. ord keys are globally unique, so strict comparisons
// partition every case.
func (w *wheelQueue) laneInsert(b *wheelBucket, prev, r, e *event) {
	rt := r.runTail
	if e.ord > rt.ord {
		// Append at the lane tail.
		e.next, e.skip, e.runTail = rt.next, nil, nil
		rt.next = e
		r.runTail = e
		if b.tail == rt {
			b.tail = e
		}
		return
	}
	if e.ord < r.ord {
		// e becomes the lane head, inheriting r's head links (rt is still
		// the lane's last member — it equals r for a single-member lane).
		e.next, e.skip, e.runTail = r, r.skip, rt
		r.skip, r.runTail = nil, nil
		if prev == nil {
			b.head = e
		} else {
			prev.skip = e
			prev.runTail.next = e
		}
		if b.tailRun == r {
			b.tailRun = e
		}
		return
	}
	// Strictly inside the lane: walk to the insertion point, resuming
	// from the last interior insertion when it lies at or before e's spot
	// in this same lane. The loop terminates before rt (rt.ord > e.ord
	// was established above).
	m := r
	if b.lastIns != nil && b.lastInsAt == e.at && b.lastIns.ord < e.ord {
		m = b.lastIns
	}
	for m.next.ord < e.ord {
		m = m.next
	}
	e.next, e.skip, e.runTail = m.next, nil, nil
	m.next = e
	b.lastIns, b.lastInsAt = e, e.at
}

// push inserts e and maintains the cursor invariant.
func (w *wheelQueue) push(e *event) {
	if w.n >= len(w.buckets) {
		w.resize(2 * len(w.buckets))
	} else if w.walkSteps > uint64(4*w.n)+4096 {
		// Insert walks are running hot: the bucket width no longer fits
		// the timestamp distribution (a dense burst landed inside coarse
		// buckets). Rebuild at the same size to re-estimate the width; the
		// O(n) relink is amortized against the >= 4n walk steps it ends.
		w.resize(len(w.buckets))
	}
	w.insert(e)
	if e.at < w.curEnd-(Time(1)<<w.shift) {
		// Never leave the cursor past a queued event: rewind to e's window.
		w.cur = int(uint64(e.at)>>w.shift) & w.mask
		w.curEnd = (e.at>>w.shift + 1) << w.shift
	}
}

// nextOccupied returns the wrapped distance from bucket i to the nearest
// occupied bucket at or after it (0 when i itself is occupied). The queue
// must be non-empty.
func (w *wheelQueue) nextOccupied(i int) int {
	if word := w.occ[i>>6] >> uint(i&63); word != 0 {
		return bits.TrailingZeros64(word)
	}
	d := 64 - i&63
	for wi := (i>>6 + 1) & (len(w.occ) - 1); ; wi = (wi + 1) & (len(w.occ) - 1) {
		if word := w.occ[wi]; word != 0 {
			return d + bits.TrailingZeros64(word)
		}
		d += 64
	}
}

// findMin positions the cursor on the bucket holding the earliest queued
// event and reports whether the queue is non-empty. After it returns true,
// buckets[cur].head is the (at, ord)-minimum.
func (w *wheelQueue) findMin() bool {
	if w.n == 0 {
		return false
	}
	width := Time(1) << w.shift
	for remaining := w.mask + 1; remaining > 0; {
		d := w.nextOccupied(w.cur)
		if d >= remaining {
			break
		}
		w.cur = (w.cur + d) & w.mask
		w.curEnd += Time(d) * width
		if w.buckets[w.cur].headAt < w.curEnd {
			return true
		}
		// Occupied, but only by future-year events: step past it.
		w.cur = (w.cur + 1) & w.mask
		w.curEnd += width
		remaining -= d + 1
	}
	// A full rotation found nothing: only far-year events remain. Jump the
	// cursor straight to the earliest one.
	bestAt := Time(0)
	bi := -1
	for wi, word := range w.occ {
		for word != 0 {
			i := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if b := &w.buckets[i]; bi < 0 || b.headAt < bestAt {
				bestAt, bi = b.headAt, i
			}
		}
	}
	w.cur = bi
	w.curEnd = (bestAt>>w.shift + 1) << w.shift
	return true
}

// popLE removes and returns the earliest event if its time is <= until.
func (w *wheelQueue) popLE(until Time) *event {
	if !w.findMin() {
		return nil
	}
	b := &w.buckets[w.cur]
	if b.headAt > until {
		return nil
	}
	return w.remove(b)
}

// pop removes and returns the earliest event (nil when empty).
func (w *wheelQueue) pop() *event {
	if !w.findMin() {
		return nil
	}
	return w.remove(&w.buckets[w.cur])
}

// remove unlinks and returns the head of the cursor bucket b.
func (w *wheelQueue) remove(b *wheelBucket) *event {
	e := b.head
	nh := e.next
	if b.lastIns == e {
		// The insertion finger leaves the queue; drop the hint.
		b.lastIns = nil
	}
	if e.runTail != e && nh != nil {
		// e headed a multi-event lane: promote the next member to lane
		// head, inheriting the lane tail and skip link.
		nh.runTail = e.runTail
		nh.skip = e.skip
	}
	b.head = nh
	if nh == nil {
		b.tail, b.tailRun = nil, nil
		w.occ[w.cur>>6] &^= 1 << uint(w.cur&63)
	} else {
		b.headAt = nh.at
		if b.tailRun == e {
			b.tailRun = nh
		}
	}
	e.next, e.skip, e.runTail = nil, nil, nil
	w.n--
	if w.n < len(w.buckets)/8 && len(w.buckets) > wheelMinBuckets {
		w.resize(len(w.buckets) / 2)
	}
	return e
}

// forEach visits every queued event in unspecified order. The next link is
// read before fn runs, so fn may zero or release the event (Sim.Reset
// does).
func (w *wheelQueue) forEach(fn func(*event)) {
	for i := range w.buckets {
		for e := w.buckets[i].head; e != nil; {
			nx := e.next
			fn(e)
			e = nx
		}
	}
}

// reset empties the queue, keeping the bucket array for reuse (Sim.Reset's
// arena contract). The width estimate carries over; it only affects
// performance, never order. Callers must have unlinked or released the
// queued events first (Sim.Reset releases them through forEach).
func (w *wheelQueue) reset() {
	for i := range w.buckets {
		w.buckets[i] = wheelBucket{}
	}
	clear(w.occ)
	w.n = 0
	w.cur = 0
	w.curEnd = 1 << w.shift
}

// resize rebuilds the wheel with nb buckets, re-estimating the bucket
// width from the queued events, and relinks everything. Amortized O(1)
// per operation under the grow/shrink thresholds.
func (w *wheelQueue) resize(nb int) {
	w.walkSteps = 0
	all := w.scratch[:0]
	for i := range w.buckets {
		for e := w.buckets[i].head; e != nil; e = e.next {
			all = append(all, e)
		}
		w.buckets[i] = wheelBucket{}
	}
	w.shift = w.estimateShift(all)
	if cap(w.buckets) >= nb {
		w.buckets = w.buckets[:nb]
	} else {
		w.buckets = make([]wheelBucket, nb)
	}
	if cap(w.occ) >= nb/64 {
		w.occ = w.occ[:nb/64]
		clear(w.occ)
	} else {
		w.occ = make([]uint64, nb/64)
	}
	w.mask = nb - 1
	w.n = 0
	w.cur = 0
	w.curEnd = 1 << w.shift
	if len(all) > 0 {
		// Restart the cursor at the earliest event's window; nothing is
		// earlier, so the relinking below cannot invalidate it.
		min := all[0]
		for _, e := range all[1:] {
			if before(e, min) {
				min = e
			}
		}
		w.cur = int(uint64(min.at)>>w.shift) & w.mask
		w.curEnd = (min.at>>w.shift + 1) << w.shift
	}
	for _, e := range all {
		w.insert(e)
	}
	for i := range all {
		all[i] = nil
	}
	w.scratch = all[:0]
}

// estimateShift picks the bucket width: about the typical inter-event
// spacing (targeting one event per bucket) where the population is
// densest, computed from a strided sample of timestamps. The width must
// resolve the dense mode of the distribution, not its mean: a broadcast
// burst packs thousands of distinct timestamps into a few hundred
// microseconds while view-change deadlines sit a minute out, and a
// mean-spacing width leaves the whole burst in one bucket whose lane
// walk is then linear per insert. The median adjacent sample gap tracks
// the dense mode by construction — the sparse timer tail contributes few
// samples, so its huge gaps land above the median, while lockstep lanes
// (equal timestamps, one hop to step over) contribute zero gaps that are
// skipped below it.
func (w *wheelQueue) estimateShift(all []*event) uint {
	if len(all) < 8 {
		return w.shift
	}
	s := w.sample[:0]
	stride := max(len(all)/256, 1)
	for i := 0; i < len(all); i += stride {
		s = append(s, all[i].at)
	}
	slices.Sort(s)
	// Turn the sorted sample into adjacent gaps (in place), sort, and take
	// the median nonzero gap. Each sample gap spans stride queued events,
	// so the per-event spacing divides it by the stride.
	for i := len(s) - 1; i > 0; i-- {
		s[i] -= s[i-1]
	}
	g := s[1:]
	slices.Sort(g)
	nz := 0
	for nz < len(g) && g[nz] == 0 {
		nz++
	}
	if nz == len(g) {
		// Every sampled timestamp equal: pure lockstep lanes, any width
		// works. Keep the current one.
		w.sample = s[:0]
		return w.shift
	}
	med := g[nz+(len(g)-nz)/2]
	w.sample = s[:0]
	gap := uint64(med) / uint64(stride)
	// Aim for a quarter event per bucket: scanning an empty window is a
	// sequential array load, far cheaper than walking an intrusive list
	// whose nodes are cold, so over-provisioning buckets wins.
	gap /= 4
	shift := uint(wheelMinShift)
	for shift < wheelMaxShift && (uint64(1)<<shift) < gap {
		shift++
	}
	return shift
}
