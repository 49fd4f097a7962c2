package simnet

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// Kernel differential tests: the conservative sharded kernel must be
// observationally identical to the serial loop — per-node delivery
// sequences, global measurements taken at ticks, event counts, message
// counters and final clocks all bit-equal. The workload below is a pure
// function of (node, message, time): handlers use no shared RNG, so any
// divergence is a kernel bug, not test nondeterminism.

// kRec is one observation a node makes: a delivery (from >= 0) or a
// locally scheduled callback (from < 0 tags the kind).
type kRec struct {
	at   Time
	from int
	msg  int
}

// kGlobal is one measurement taken by a global-affinity tick event.
type kGlobal struct {
	at    Time
	msgs  uint64
	bytes uint64
}

// kObs collects everything a run exposes to measurement.
type kObs struct {
	perNode [][]kRec
	global  []kGlobal
	events  uint64
	msgs    uint64
	bytes   uint64
	now     Time
	halted  bool
}

const (
	kNodes = 8
	kUntil = Time(40 * time.Millisecond)
)

// kernelWorkload wires the deterministic workload onto a simulator and
// network, given the scheduling views for nodes, client and global code.
// haltAt > 0 arms a global Halt at that time.
func kernelWorkload(nw *Network, global *Sim, nodeOn func(int) NodeSim, client NodeSim, obs *kObs, haltAt Time) {
	n := nw.Size()
	obs.perNode = make([][]kRec, n)
	record := func(node, from, msg int, at Time) {
		obs.perNode[node] = append(obs.perNode[node], kRec{at, from, msg})
	}
	for i := 0; i < n; i++ {
		i := i
		ns := nodeOn(i)
		nw.Register(i, func(from int, msg any) {
			m := msg.(int)
			record(i, from, m, ns.Now())
			if m <= 0 {
				return
			}
			hop := (i*7 + m*13) % n
			if hop == i {
				hop = (hop + 1) % n
			}
			switch m % 4 {
			case 0: // timer-driven resend: node-pinned delayed hop
				ns.After(Duration(m%9+1)*100*time.Microsecond, func() {
					record(i, -2, m, ns.Now())
					nw.Send(i, hop, 64+m%128, m-1)
				})
			default: // immediate hop
				nw.Send(i, hop, 64+m%128, m-1)
			}
		})
	}
	// Seed traffic: every node opens a short gossip chain.
	for i := 0; i < n; i++ {
		nw.Send(i, (i+1)%n, 100, 5+i%4)
	}
	// Open-loop client source: submissions delivered to rotating targets
	// after the modeled base delay, exactly the cluster shape.
	var submit func(j int)
	submit = func(j int) {
		if Time(j)*Time(800*time.Microsecond) > kUntil {
			return
		}
		target := j % n
		d := nw.BaseDelay(target, (target+3)%n, 256)
		client.CallAtNode(target, client.Now()+Time(d), func(a, b any) {
			t, m := a.(int), b.(int)
			record(t, -9, m, Time(0)) // at filled by caller clock below
			obs.perNode[t][len(obs.perNode[t])-1].at = nodeOn(t).Now()
			nw.Send(t, (t+5)%n, 256, m%6)
		}, target, j)
		client.After(800*time.Microsecond, func() { submit(j + 1) })
	}
	client.After(200*time.Microsecond, func() { submit(0) })
	// Global timeline: measurement ticks plus scenario mutations at
	// statically known times — the barrier-aligned global events.
	tick := Time(3 * time.Millisecond)
	for k := 1; Time(k)*tick <= kUntil; k++ {
		k := k
		global.At(Time(k)*tick, func() {
			obs.global = append(obs.global, kGlobal{global.Now(), nw.Messages(), nw.Bytes()})
			switch k {
			case 2:
				nw.SetOutScale(1, 2.0) // straggler slowdown (scale > 1 only)
			case 3:
				nw.SetDown(2, true) // crash
			case 5:
				nw.SetDown(2, false) // recover
				nw.SetLinkBlocked(0, 5, true)
			case 7:
				nw.SetLinkBlocked(0, 5, false)
				// A global event that injects traffic: stamped through the
				// sender's shard counter, delivered like any node send.
				nw.Send(4, 6, 512, 3)
			}
		})
	}
	if haltAt > 0 {
		global.At(haltAt, global.Halt)
	}
}

// runSerial executes the workload on the serial reference loop.
func runSerial(seed int64, kind QueueKind, lan bool, haltAt Time) kObs {
	s := NewWithQueue(seed, kind)
	geo := NewWAN()
	if lan {
		geo = NewLAN()
	}
	nw := NewNetwork(s, kNodes, geo)
	var obs kObs
	kernelWorkload(nw, s, func(i int) NodeSim { return On(s, i) }, On(s, kNodes), &obs, haltAt)
	s.Run(kUntil)
	obs.events = s.EventsProcessed()
	obs.msgs, obs.bytes = nw.Messages(), nw.Bytes()
	obs.now, obs.halted = s.Now(), s.Halted()
	return obs
}

// runParallel executes the identical workload on the sharded kernel.
// Returns the kernel too so tests can inspect its stats and seams.
func runParallel(t *testing.T, seed int64, kind QueueKind, lan bool, workers int, haltAt Time) (kObs, *Kernel) {
	t.Helper()
	g := NewWithQueue(seed, kind)
	geo := NewWAN()
	if lan {
		geo = NewLAN()
	}
	nw := NewNetwork(g, kNodes, geo)
	plan, nshards := nw.PlanShards(workers)
	if plan == nil {
		t.Fatalf("PlanShards(%d) declined to shard", workers)
	}
	k := NewKernel(g, nw, plan, nshards, kNodes, workers)
	var obs kObs
	kernelWorkload(nw, g, k.NodeOn, k.ClientOn(), &obs, haltAt)
	k.Run(kUntil)
	obs.events = k.EventsProcessed()
	obs.msgs, obs.bytes = nw.Messages(), nw.Bytes()
	obs.now, obs.halted = g.Now(), k.Halted()
	return obs, k
}

// diffObs fails the test on the first observable divergence.
func diffObs(t *testing.T, label string, serial, parallel kObs) {
	t.Helper()
	for i := range serial.perNode {
		if !reflect.DeepEqual(serial.perNode[i], parallel.perNode[i]) {
			a, b := serial.perNode[i], parallel.perNode[i]
			for j := 0; j < len(a) || j < len(b); j++ {
				var sa, sb kRec
				if j < len(a) {
					sa = a[j]
				}
				if j < len(b) {
					sb = b[j]
				}
				if sa != sb {
					t.Fatalf("%s: node %d diverged at obs %d: serial %+v parallel %+v (lens %d/%d)",
						label, i, j, sa, sb, len(a), len(b))
				}
			}
		}
	}
	if !reflect.DeepEqual(serial.global, parallel.global) {
		t.Fatalf("%s: global ticks diverged:\nserial   %+v\nparallel %+v", label, serial.global, parallel.global)
	}
	if serial.events != parallel.events {
		t.Fatalf("%s: event counts diverged: serial %d parallel %d", label, serial.events, parallel.events)
	}
	if serial.msgs != parallel.msgs || serial.bytes != parallel.bytes {
		t.Fatalf("%s: traffic diverged: serial (%d,%d) parallel (%d,%d)",
			label, serial.msgs, serial.bytes, parallel.msgs, parallel.bytes)
	}
	if serial.now != parallel.now || serial.halted != parallel.halted {
		t.Fatalf("%s: clock diverged: serial (%v,%v) parallel (%v,%v)",
			label, serial.now, serial.halted, parallel.now, parallel.halted)
	}
}

// TestKernelDifferential pins parallel ≡ serial across topologies (WAN
// region shards, LAN stripes), queue kinds, worker counts and seeds:
// every observable — per-node delivery sequences with timestamps, global
// tick measurements, event totals, message/byte counters, final clock —
// must be bit-identical.
func TestKernelDifferential(t *testing.T) {
	for _, lan := range []bool{false, true} {
		for _, kind := range []QueueKind{QueueWheel, QueueHeap} {
			for seed := int64(1); seed <= 4; seed++ {
				serial := runSerial(seed, kind, lan, 0)
				for _, workers := range []int{2, 4} {
					label := fmt.Sprintf("lan=%v kind=%d seed=%d workers=%d", lan, kind, seed, workers)
					parallel, k := runParallel(t, seed, kind, lan, workers, 0)
					diffObs(t, label, serial, parallel)
					if k.Windows() == 0 || k.Merged() == 0 {
						t.Fatalf("%s: kernel did no parallel work (windows=%d merged=%d)",
							label, k.Windows(), k.Merged())
					}
				}
			}
		}
	}
}

// TestKernelDifferentialHalt pins the Halt path: a global Halt mid-run
// must stop both kernels at the identical instant with identical state.
func TestKernelDifferentialHalt(t *testing.T) {
	haltAt := Time(11 * time.Millisecond)
	for _, lan := range []bool{false, true} {
		serial := runSerial(7, QueueWheel, lan, haltAt)
		if !serial.halted || serial.now != haltAt {
			t.Fatalf("serial halt misfired: halted=%v now=%v", serial.halted, serial.now)
		}
		parallel, _ := runParallel(t, 7, QueueWheel, lan, 4, haltAt)
		diffObs(t, fmt.Sprintf("halt lan=%v", lan), serial, parallel)
	}
}

// TestKernelCrossQueueDifferential closes the square: the parallel wheel
// run must equal the serial heap run (and vice versa), so queue choice
// and kernel choice are independently interchangeable.
func TestKernelCrossQueueDifferential(t *testing.T) {
	serialHeap := runSerial(3, QueueHeap, false, 0)
	parallelWheel, _ := runParallel(t, 3, QueueWheel, false, 4, 0)
	diffObs(t, "serial-heap vs parallel-wheel", serialHeap, parallelWheel)
}

// TestKernelLookaheadInvariant checks the conservative floor on every
// cross-shard hand-off: replica-shard events merge at or beyond the
// window end (start + lookahead), client events at or beyond the window
// start, and no event ever merges back into the shard that sent it.
func TestKernelLookaheadInvariant(t *testing.T) {
	for _, lan := range []bool{false, true} {
		g := NewWithQueue(42, QueueWheel)
		geo := NewWAN()
		if lan {
			geo = NewLAN()
		}
		nw := NewNetwork(g, kNodes, geo)
		plan, nshards := nw.PlanShards(4)
		if plan == nil {
			t.Fatal("PlanShards declined to shard")
		}
		k := NewKernel(g, nw, plan, nshards, kNodes, 4)
		merges := 0
		k.onMerge = func(e *event, srcShard int, windowStart, windowEnd Time) {
			merges++
			dst := ordDst(e.ord)
			if srcShard == nshards { // client source
				if e.at < windowStart {
					t.Fatalf("client merge below window start: at %v window [%v,%v)", e.at, windowStart, windowEnd)
				}
				return
			}
			if e.at < windowEnd {
				t.Fatalf("lookahead violated: shard %d event at %v window [%v,%v)", srcShard, e.at, windowStart, windowEnd)
			}
			if e.at < windowStart+Time(k.Lookahead()) {
				t.Fatalf("merge below start+lookahead: at %v start %v look %v", e.at, windowStart, k.Lookahead())
			}
			if plan[dst] == srcShard {
				t.Fatalf("event for node %d merged back into its own shard %d", dst, srcShard)
			}
		}
		var obs kObs
		kernelWorkload(nw, g, k.NodeOn, k.ClientOn(), &obs, 0)
		k.Run(kUntil)
		if merges == 0 {
			t.Fatal("no cross-shard merges observed")
		}
		if k.MaxOutbox() == 0 {
			t.Fatal("outbox high-water mark not recorded")
		}
	}
}

// TestKernelShardQueueInvariants runs the structural queue checks from
// property_test.go against every shard queue mid-flight: at barriers each
// shard queue must still be a well-formed (at, ord) structure and the
// shard pools must stay disjoint.
func TestKernelShardQueueInvariants(t *testing.T) {
	g := NewWithQueue(9, QueueWheel)
	nw := NewNetwork(g, kNodes, NewWAN())
	plan, nshards := nw.PlanShards(4)
	k := NewKernel(g, nw, plan, nshards, kNodes, 4)
	var obs kObs
	kernelWorkload(nw, g, k.NodeOn, k.ClientOn(), &obs, 0)
	checked := 0
	// Global ticks run at barriers with every shard quiescent: piggyback
	// the structural checks there.
	tick := Time(5 * time.Millisecond)
	for i := 1; i <= 7; i++ {
		i := i
		g.At(Time(i)*tick, func() {
			checked++
			for _, s := range k.shards {
				checkQueue(t, s.q)
			}
			checkQueue(t, k.client.q)
			checkQueue(t, g.q)
		})
	}
	k.Run(kUntil)
	if checked == 0 {
		t.Fatal("no barrier checks ran")
	}
	sims := append([]*Sim{g, k.client}, k.shards...)
	for _, s := range sims {
		checkDisjoint(t, s)
	}
	checkDisjointAcross(t, sims)
}

// checkDisjointAcross verifies no pooled or queued event is shared
// between any two simulators: cross-shard hand-off moves ownership, it
// never aliases.
func checkDisjointAcross(t *testing.T, sims []*Sim) {
	t.Helper()
	owner := make(map[*event]int)
	for i, s := range sims {
		claim := func(e *event) {
			if prev, ok := owner[e]; ok {
				t.Fatalf("event shared between sims %d and %d", prev, i)
			}
			owner[e] = i
		}
		s.q.forEach(claim)
		for _, e := range s.pool {
			claim(e)
		}
	}
}

// TestPlanShards pins the shard-planning policy: WAN shards by region
// (splitting a region would collapse the 40 ms lookahead to the 50 µs
// local delay), LAN stripes round-robin, and the planner declines when
// sharding is impossible or pointless.
func TestPlanShards(t *testing.T) {
	sim := New(1)
	wan := NewNetwork(sim, 8, NewWAN())
	plan, nshards := wan.PlanShards(4)
	if nshards != 4 || plan == nil {
		t.Fatalf("WAN 8x4: got %d shards", nshards)
	}
	for i, sh := range plan {
		if sh != i%4 {
			t.Fatalf("WAN shard of node %d = %d, want region %d", i, sh, i%4)
		}
	}
	if got := wan.MinCrossBase(plan); got != 40*time.Millisecond {
		t.Fatalf("WAN lookahead = %v, want 40ms", got)
	}

	// More workers than regions: capped at the region count.
	if _, nshards = wan.PlanShards(16); nshards != 4 {
		t.Fatalf("WAN 8x16: got %d shards, want 4", nshards)
	}
	// Two workers over four regions: regions fold onto two shards.
	plan, nshards = wan.PlanShards(2)
	if nshards != 2 {
		t.Fatalf("WAN 8x2: got %d shards", nshards)
	}
	for i, sh := range plan {
		if sh != (i%4)%2 {
			t.Fatalf("WAN 8x2 shard of node %d = %d", i, sh)
		}
	}

	sim2 := New(1)
	lan := NewNetwork(sim2, 6, NewLAN())
	plan, nshards = lan.PlanShards(4)
	if nshards != 4 {
		t.Fatalf("LAN 6x4: got %d shards", nshards)
	}
	for i, sh := range plan {
		if sh != i%4 {
			t.Fatalf("LAN stripe of node %d = %d", i, sh)
		}
	}
	if got := lan.MinCrossBase(plan); got != 500*time.Microsecond {
		t.Fatalf("LAN lookahead = %v, want 500µs", got)
	}

	// Declines: single worker, no geo fast path, single node.
	if plan, _ := wan.PlanShards(1); plan != nil {
		t.Fatal("PlanShards(1) should decline")
	}
	sim3 := New(1)
	fixed := NewNetwork(sim3, 8, FixedModel{D: time.Millisecond})
	if plan, _ := fixed.PlanShards(4); plan != nil {
		t.Fatal("PlanShards without geo fast path should decline")
	}
	sim4 := New(1)
	one := NewNetwork(sim4, 1, NewWAN())
	if plan, _ := one.PlanShards(4); plan != nil {
		t.Fatal("PlanShards with one node should decline")
	}
}

// TestKernelRejectsServices pins the serial-only guards: NIC queueing and
// message drops mutate cross-shard state at send time and must be
// rejected at SetSharded.
func TestKernelRejectsSerialOnly(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("nic", func() {
		g := New(1)
		nw := NewNetwork(g, 8, NewWAN())
		nw.SetNICBps(1e9)
		plan, nshards := nw.PlanShards(4)
		NewKernel(g, nw, plan, nshards, 8, 4)
	})
	mustPanic("drops", func() {
		g := New(1)
		nw := NewNetwork(g, 8, NewWAN())
		nw.SetDropRate(0.01)
		plan, nshards := nw.PlanShards(4)
		NewKernel(g, nw, plan, nshards, 8, 4)
	})
	mustPanic("node-halt", func() {
		g := New(1)
		nw := NewNetwork(g, 8, NewWAN())
		plan, nshards := nw.PlanShards(4)
		k := NewKernel(g, nw, plan, nshards, 8, 4)
		k.NodeOn(0).After(time.Millisecond, func() { k.simOf[0].Halt() })
		k.Run(Time(10 * time.Millisecond))
	})
}
