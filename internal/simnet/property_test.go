package simnet

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// Property tests for the pooled event scheduler. The pooling contract
// (sim.go, ARCHITECTURE.md "Performance model"): an event is owned by the
// queue from schedule until its callback returns, then by the free pool;
// released events are zeroed; no event is ever in the queue and the pool
// at once. Execution order is the total order (at, ord) — identical for
// the timing-wheel queue and the reference heap, which the differential
// tests below pin against each other.

// queueKinds names both queue implementations for sub-test sweeps.
var queueKinds = []struct {
	name string
	kind QueueKind
}{
	{"wheel", QueueWheel},
	{"heap", QueueHeap},
}

// checkQueue verifies the implementation-specific structural invariant of
// the live queue: the heap property for the reference heap, bucket
// ordering plus cursor and count soundness for the wheel.
func checkQueue(t *testing.T, q eventQueue) {
	t.Helper()
	switch q := q.(type) {
	case *heapQueue:
		for i := range q.h {
			for _, c := range []int{2*i + 1, 2*i + 2} {
				if c < len(q.h) && q.h.Less(c, i) {
					t.Fatalf("heap invariant violated at parent %d child %d: (%d,%d) > (%d,%d)",
						i, c, q.h[i].at, q.h[i].ord, q.h[c].at, q.h[c].ord)
				}
			}
		}
	case *wheelQueue:
		n := 0
		curStart := q.curEnd - Time(1)<<q.shift
		for i := range q.buckets {
			b := q.buckets[i]
			var prev *event
			for e := b.head; e != nil; e = e.next {
				n++
				if idx := int(uint64(e.at)>>q.shift) & q.mask; idx != i {
					t.Fatalf("wheel event (%d,%d) filed in bucket %d, belongs in %d", e.at, e.ord, i, idx)
				}
				if prev != nil && !before(prev, e) {
					t.Fatalf("wheel bucket %d unsorted: (%d,%d) !< (%d,%d)",
						i, prev.at, prev.ord, e.at, e.ord)
				}
				if e.at < curStart {
					t.Fatalf("wheel cursor (start %d) passed queued event (%d,%d)", curStart, e.at, e.ord)
				}
				if e.next == nil && b.tail != e {
					t.Fatalf("wheel bucket %d tail pointer out of sync", i)
				}
				prev = e
			}
			if (b.head == nil) != (b.tail == nil) {
				t.Fatalf("wheel bucket %d head/tail out of sync", i)
			}
			// Lane structure: the skip chain visits exactly the heads of the
			// same-timestamp runs, each head's runTail is its lane's last
			// member, and the last lane is tailRun.
			var lastLane *event
			for r := b.head; r != nil; r = r.skip {
				rt := r.runTail
				if rt == nil {
					t.Fatalf("wheel bucket %d lane head (%d,%d) missing runTail", i, r.at, r.ord)
				}
				for m := r; ; m = m.next {
					if m.at != r.at {
						t.Fatalf("wheel bucket %d lane (at=%d) contains (%d,%d)", i, r.at, m.at, m.ord)
					}
					if m != r && (m.skip != nil || m.runTail != nil) {
						t.Fatalf("wheel bucket %d lane member (%d,%d) carries head links", i, m.at, m.ord)
					}
					if m == rt {
						break
					}
					if m.next == nil {
						t.Fatalf("wheel bucket %d lane (at=%d) runTail unreachable", i, r.at)
					}
				}
				if rt.next != nil && rt.next.at == r.at {
					t.Fatalf("wheel bucket %d lane (at=%d) split across runs", i, r.at)
				}
				if r.skip != nil && r.skip != rt.next {
					t.Fatalf("wheel bucket %d skip link skips events at at=%d", i, r.at)
				}
				lastLane = r
			}
			if lastLane != b.tailRun {
				t.Fatalf("wheel bucket %d tailRun out of sync", i)
			}
			if b.tailRun != nil && b.tailRun.runTail != b.tail {
				t.Fatalf("wheel bucket %d tail lane does not end at tail", i)
			}
			if occupied := q.occ[i>>6]&(1<<uint(i&63)) != 0; occupied != (b.head != nil) {
				t.Fatalf("wheel bucket %d occupancy bit %v but head nil=%v", i, occupied, b.head == nil)
			}
		}
		if n != q.n {
			t.Fatalf("wheel count %d != %d live events", q.n, n)
		}
	default:
		t.Fatalf("unknown queue implementation %T", q)
	}
}

// eventZeroed reports whether a released event carries no stale state
// (funcs are not comparable, so the struct is checked field by field).
func eventZeroed(e *event) bool {
	return e.at == 0 && e.ord == 0 && e.call == nil &&
		e.argA == nil && e.argB == nil && e.nw == nil &&
		e.from == 0 && e.to == 0 && e.msg == nil &&
		e.next == nil && e.skip == nil && e.runTail == nil
}

// queuedSet collects the identity of every live queued event.
func queuedSet(s *Sim) map[*event]bool {
	in := make(map[*event]bool, s.q.len())
	s.q.forEach(func(e *event) { in[e] = true })
	return in
}

// checkDisjoint verifies no event sits in both the queue and the pool,
// and that pooled events are fully zeroed.
func checkDisjoint(t *testing.T, s *Sim) {
	t.Helper()
	inQueue := queuedSet(s)
	for _, e := range s.pool {
		if inQueue[e] {
			t.Fatal("event present in both queue and free pool")
		}
		if !eventZeroed(e) {
			t.Fatalf("released event not zeroed: %+v", *e)
		}
	}
}

// TestSchedulerTotalOrder drives random event loads — seeded sweeps over
// mixed At/After/CallAt scheduling, including events scheduled from inside
// callbacks — and asserts every execution trace is totally ordered by
// (at, ord). Every event here carries the global affinity, so
// its canonical key reduces to the global per-source count and must
// reflect scheduling order exactly. Both queue implementations are swept.
func TestSchedulerTotalOrder(t *testing.T) {
	for _, qk := range queueKinds {
		t.Run(qk.name, func(t *testing.T) {
			for seed := int64(0); seed < 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				s := NewWithQueue(seed, qk.kind)
				type stamp struct {
					at  Time
					ord uint64
				}
				// nextOrd predicts the key the scheduler will assign to the
				// next globally scheduled event.
				nextOrd := func() uint64 {
					var cnt uint64 = 1
					if len(s.ordCnt) > 0 {
						cnt = s.ordCnt[0] + 1
					}
					return makeOrd(NodeNone, NodeNone, cnt)
				}
				var trace []stamp
				n := 50 + rng.Intn(200)
				var schedule func(depth int)
				schedule = func(depth int) {
					at := s.Now() + Time(rng.Intn(1000))
					ord := nextOrd() // the stamp the scheduler will assign next
					switch rng.Intn(3) {
					case 0:
						s.At(at, func() {
							trace = append(trace, stamp{s.Now(), ord})
							if depth < 3 && rng.Intn(2) == 0 {
								schedule(depth + 1)
							}
						})
					case 1:
						s.After(Duration(rng.Intn(1000)), func() {
							trace = append(trace, stamp{s.Now(), ord})
						})
					default:
						s.CallAt(at, func(a, b any) {
							trace = append(trace, stamp{s.Now(), ord})
						}, nil, nil)
					}
				}
				for i := 0; i < n; i++ {
					schedule(0)
				}
				for s.Step() {
					checkQueue(t, s.q)
					checkDisjoint(t, s)
				}
				for i := 1; i < len(trace); i++ {
					a, b := trace[i-1], trace[i]
					if a.at > b.at || (a.at == b.at && a.ord >= b.ord) {
						t.Fatalf("seed %d: execution order violated (at,ord): (%d,%d) before (%d,%d)",
							seed, a.at, a.ord, b.at, b.ord)
					}
				}
			}
		})
	}
}

// TestQueueInvariantAfterHalt halts mid-run from a random event and checks
// the remaining queue still satisfies its structural invariant, stays
// disjoint from the pool, and that stepping can resume without corrupting
// either. Both queue implementations are swept.
func TestQueueInvariantAfterHalt(t *testing.T) {
	for _, qk := range queueKinds {
		t.Run(qk.name, func(t *testing.T) {
			for seed := int64(0); seed < 20; seed++ {
				rng := rand.New(rand.NewSource(seed ^ 0x5eed))
				s := NewWithQueue(seed, qk.kind)
				n := 100 + rng.Intn(200)
				haltAt := rng.Intn(n)
				for i := 0; i < n; i++ {
					i := i
					s.After(Duration(rng.Intn(500)), func() {
						if i == haltAt {
							s.Halt()
						}
					})
				}
				s.RunAll(0)
				if !s.halted {
					t.Fatalf("seed %d: Halt not observed", seed)
				}
				checkQueue(t, s.q)
				checkDisjoint(t, s)
				// The engine must remain stepable after Halt (Run/RunAll stop,
				// the raw queue does not corrupt).
				for s.Step() {
					checkQueue(t, s.q)
					checkDisjoint(t, s)
				}
				if s.Pending() != 0 {
					t.Fatalf("seed %d: %d events stuck after drain", seed, s.Pending())
				}
			}
		})
	}
}

// TestPooledEventsNeverObservedAfterRelease schedules network deliveries
// and plain events, tracking the identity of every pooled event: after
// each step, no live queue entry may alias a pool entry, and every pool
// entry must be zeroed — a released event can never be observed with
// stale fields. Uses testing/quick over the load shape, for both queues.
func TestPooledEventsNeverObservedAfterRelease(t *testing.T) {
	for _, qk := range queueKinds {
		qk := qk
		t.Run(qk.name, func(t *testing.T) {
			f := func(seed int64, loadBits uint8) bool {
				rng := rand.New(rand.NewSource(seed))
				s := NewWithQueue(seed, qk.kind)
				nw := NewNetwork(s, 4, NewFixed(time.Millisecond), nil)
				delivered := 0
				for i := 0; i < 4; i++ {
					nw.Register(i, func(from int, msg any) {
						delivered++
						if m, ok := msg.(int); ok && rng.Intn(4) == 0 {
							nw.Send(0, m%4, m+1)
						}
					})
				}
				load := 16 + int(loadBits)
				for i := 0; i < load; i++ {
					nw.Send(rng.Intn(4), rng.Intn(4), i)
					if rng.Intn(3) == 0 {
						s.After(Duration(rng.Intn(100)), func() {})
					}
				}
				for s.Step() {
					inQueue := queuedSet(s)
					for _, e := range s.pool {
						if inQueue[e] || !eventZeroed(e) {
							return false
						}
					}
				}
				return delivered > 0 && s.Pending() == 0
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPoolReuseBounded pins the point of pooling: a long steady-state
// send/step cycle reuses a bounded set of event objects instead of
// allocating per message.
func TestPoolReuseBounded(t *testing.T) {
	s := New(1)
	nw := NewNetwork(s, 2, NewFixed(time.Millisecond), nil)
	nw.Register(0, func(int, any) {})
	nw.Register(1, func(int, any) {})
	seen := make(map[*event]bool)
	for round := 0; round < 1000; round++ {
		nw.Send(0, 1, round)
		s.q.forEach(func(e *event) { seen[e] = true })
		s.RunAll(0)
	}
	if len(seen) > 4 {
		t.Fatalf("steady-state cycle touched %d distinct event objects; pooling broken", len(seen))
	}
}
