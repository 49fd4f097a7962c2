package simnet

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// Differential tests: the timing-wheel queue and the reference heap must
// produce the identical pop order for every (at, ord) workload — the
// wheel's whole correctness argument reduces to "indistinguishable from
// the heap". The canonical ord key is not monotone in push order, so the
// workloads deliberately interleave sources and affinities to hit the
// wheel's in-lane ordered-insert paths (head replacement, mid-lane, tail
// append).

// popAll drains q and returns the (at, ord) sequence observed.
func popAll(q eventQueue) [][2]uint64 {
	var out [][2]uint64
	for {
		e := q.pop()
		if e == nil {
			return out
		}
		out = append(out, [2]uint64{uint64(e.at), e.ord})
	}
}

// ordGen hands out canonical keys the way a multi-node simulation does:
// random (dst, src) affinities with a strictly increasing per-source
// count, so keys are globally unique but arrive out of order.
type ordGen struct {
	rng  *rand.Rand
	cnts [9]uint64
}

func (g *ordGen) next() uint64 {
	src := g.rng.Intn(9) - 1
	dst := g.rng.Intn(9) - 1
	g.cnts[src+1]++
	return makeOrd(dst, src, g.cnts[src+1])
}

// TestQueueDifferentialPopOrder drives both queue implementations through
// identical randomized push/pop interleavings — clustered timestamps,
// same-timestamp lanes with out-of-order keys, sparse far-future outliers
// that force the wheel's year wraparound, and mid-stream pops — and
// asserts the popped (at, ord) sequences match element for element.
func TestQueueDifferentialPopOrder(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		wheel := newWheelQueue()
		ref := &heapQueue{}
		gen := &ordGen{rng: rng}
		var clock Time
		n := 200 + rng.Intn(800)
		push := func(at Time) {
			ord := gen.next()
			wheel.push(&event{at: at, ord: ord})
			ref.push(&event{at: at, ord: ord})
		}
		for i := 0; i < n; i++ {
			switch rng.Intn(10) {
			case 0: // far-future outlier (timer-like): exercises year wrap
				push(clock + Time(rng.Int63n(int64(20*time.Second))))
			case 1, 2: // same-timestamp lane with interleaved sources
				at := clock + Time(rng.Intn(1000))
				for j := 0; j < 1+rng.Intn(5); j++ {
					push(at)
				}
			case 3: // interleaved pop run: advances the clock like Step does
				for j := 0; j < rng.Intn(8); j++ {
					we, he := wheel.pop(), ref.pop()
					if (we == nil) != (he == nil) {
						t.Fatalf("seed %d: pop emptiness diverged", seed)
					}
					if we == nil {
						break
					}
					if we.at != he.at || we.ord != he.ord {
						t.Fatalf("seed %d: pop diverged: wheel (%d,%d) heap (%d,%d)",
							seed, we.at, we.ord, he.at, he.ord)
					}
					if we.at > clock {
						clock = we.at
					}
				}
			default: // clustered deliveries around the clock
				push(clock + Time(rng.Int63n(int64(300*time.Millisecond))))
			}
			if wheel.len() != ref.len() {
				t.Fatalf("seed %d: length diverged: wheel %d heap %d", seed, wheel.len(), ref.len())
			}
		}
		w, h := popAll(wheel), popAll(ref)
		if len(w) != len(h) {
			t.Fatalf("seed %d: drained %d vs %d events", seed, len(w), len(h))
		}
		for i := range w {
			if w[i] != h[i] {
				t.Fatalf("seed %d: drain diverged at %d: wheel (%d,%d) heap (%d,%d)",
					seed, i, w[i][0], w[i][1], h[i][0], h[i][1])
			}
		}
	}
}

// TestQueueDifferentialQuick is the testing/quick version: arbitrary
// timestamp vectors (interpreted as offsets, so pathological clustering
// and huge gaps both occur) must drain identically from both queues.
func TestQueueDifferentialQuick(t *testing.T) {
	f := func(offsets []uint32, popEvery uint8) bool {
		wheel := newWheelQueue()
		ref := &heapQueue{}
		gen := &ordGen{rng: rand.New(rand.NewSource(int64(popEvery)))}
		var clock Time
		step := int(popEvery%7) + 2
		for i, off := range offsets {
			at := clock + Time(uint64(off)*uint64(1+i%3))
			ord := gen.next()
			wheel.push(&event{at: at, ord: ord})
			ref.push(&event{at: at, ord: ord})
			if i%step == 0 {
				we, he := wheel.pop(), ref.pop()
				if we == nil || he == nil || we.at != he.at || we.ord != he.ord {
					return false
				}
				if we.at > clock {
					clock = we.at
				}
			}
		}
		w, h := popAll(wheel), popAll(ref)
		if len(w) != len(h) {
			return false
		}
		for i := range w {
			if w[i] != h[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// traceStamp is one executed event in a scheduler trace: the virtual time,
// the running event count, and the affinity the event executed under.
type traceStamp struct {
	at     Time
	events uint64
	node   int
}

// simTrace runs a deterministic mixed workload — network deliveries with
// reentrant sends, node-pinned scheduling, plain callbacks, cancelled
// timers, a mid-run Halt with resumption, and a Reset that reuses pooled
// nodes for a second round — and returns the execution trace.
func simTrace(kind QueueKind, seed int64) []traceStamp {
	var trace []traceStamp
	s := NewWithQueue(seed, kind)
	for round := 0; round < 2; round++ {
		s.Reset(seed + int64(round))
		rng := rand.New(rand.NewSource(seed*31 + int64(round)))
		nw := NewNetwork(s, 4, NewFixed(time.Millisecond), nil)
		record := func() { trace = append(trace, traceStamp{s.Now(), s.events, s.cur}) }
		for i := 0; i < 4; i++ {
			nw.Register(i, func(from int, msg any) {
				record()
				if m, ok := msg.(int); ok && m > 0 && rng.Intn(3) == 0 {
					nw.Send(from, m%4, m-1)
				}
			})
		}
		n := 150 + rng.Intn(150)
		haltAt := rng.Intn(n)
		for i := 0; i < n; i++ {
			i := i
			switch rng.Intn(4) {
			case 0:
				nw.Send(rng.Intn(4), rng.Intn(4), rng.Intn(8))
			case 1:
				s.After(Duration(rng.Int63n(int64(5*time.Second))), func() {
					record()
					if i == haltAt {
						s.Halt()
					}
				})
			case 2:
				On(s, rng.Intn(4)).After(Duration(rng.Intn(1500)), record)
			default:
				s.CallAfter(Duration(rng.Intn(100)), func(a, b any) { record() }, nil, nil)
			}
		}
		s.RunAll(0) // may stop early at the Halt
		s.halted = false
		s.RunAll(0) // resume and drain
	}
	return trace
}

// TestSimDifferentialTrace pins the scheduler end to end: the same seeded
// workload — including Halt mid-run, resumption, node-pinned scheduling,
// and pooled-node reuse across a Reset — executes in the identical order
// on the wheel and on the reference heap.
func TestSimDifferentialTrace(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		w := simTrace(QueueWheel, seed)
		h := simTrace(QueueHeap, seed)
		if len(w) != len(h) {
			t.Fatalf("seed %d: trace lengths diverged: wheel %d heap %d", seed, len(w), len(h))
		}
		for i := range w {
			if w[i] != h[i] {
				t.Fatalf("seed %d: trace diverged at %d: wheel %+v heap %+v",
					seed, i, w[i], h[i])
			}
		}
	}
}
