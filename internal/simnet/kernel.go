package simnet

import (
	"fmt"
	"sync"
)

// Conservative parallel-DES kernel. Replicas are partitioned into shards,
// each with its own Sim (clock, event queue, event pool); a coordinator
// alternates safe execution windows with barriers. The window length is
// the lookahead: the minimum jitter-free propagation delay of any link
// that crosses shards, so an event executed anywhere inside a window can
// only schedule cross-shard work at or beyond the window's end. Shards
// therefore run a window concurrently without ever needing an event the
// other shards have not sent yet — the classic conservative synchronous
// protocol, with the lookahead read off the GeoModel base-delay matrix
// that the Network precomputes anyway.
//
// Determinism contract: the kernel executes the exact event schedule the
// serial loop does. Three mechanisms carry the proof:
//
//  1. The canonical tie-break key (sim.go): equal-time events order by
//     (dst, src, per-source count), a pure function of the workload. Each
//     shard pops its own queue in (at, ord) order, and since every event
//     executes on its destination's shard, the per-node event sequence —
//     the only order a node can observe — is identical to the serial
//     run's. Cross-shard merge order is irrelevant: the destination queue
//     re-sorts by the same key.
//  2. Per-link jitter streams (Network.jit): delay sampling depends only
//     on (seed, link, per-link send count), not on global interleaving.
//  3. Windows never span a global event. Scenario mutations, measurement
//     ticks and fault injections live on the global Sim at statically
//     known times; the coordinator clamps every window to the next global
//     event time and runs global events at barriers, with every shard
//     quiescent and every clock aligned — exactly the state the serial
//     loop is in when it executes them.
//
// The client shard is a pure source: the open-loop submission chain
// schedules into replica shards but never receives, so its (possibly
// sub-lookahead) send delays cannot constrain the window. Each window the
// client runs first, its outbox merges, then the replica shards run the
// same window in parallel.
//
// Memory model: shard state is touched only by its worker goroutine
// during a window; coordinator↔worker hand-offs go through a job channel
// and WaitGroup, so every barrier is a full happens-before edge. Outboxes
// are single-writer (the owning shard during windows, the coordinator at
// barriers). The serial-only configurations — NIC queueing, message
// drops, analytic SB, sub-unity straggler scales, Halt from node events —
// mutate or observe cross-shard state at send time and are rejected up
// front (SetSharded, cluster validation) or trapped at the first
// violation (route, mergeOutbox panics).
type Kernel struct {
	global     *Sim
	client     *Sim
	nw         *Network
	shards     []*Sim
	simOf      []*Sim // node -> owning shard sim
	shardOf    []int
	clientNode int
	look       Time
	workers    int
	// outbox[i] holds shard i's cross-shard events until the next barrier
	// (index len(shards) is the client's). Bounded in practice by one
	// window's sends; maxOutbox records the high-water mark.
	outbox [][]*event

	// Stats, for bench columns and the differential harness.
	windows   uint64
	merged    uint64
	maxOutbox int

	// onMerge, when set, observes every cross-shard hand-off at its merge
	// barrier (test seam for the lookahead property suite).
	onMerge func(e *event, srcShard int, windowStart, windowEnd Time)

	// onBarrier, when set, runs at every synchronization barrier — shards
	// quiescent, outboxes merged, clocks aligned, before the barrier's
	// global events. The cluster harness replays its per-shard measurement
	// logs here, in canonical (at, ord) order, so shared-state hooks
	// (confirmation accounting, block-delivery observers) observe the
	// exact serial sequence without any cross-shard synchronization on the
	// hot path.
	onBarrier func(now Time)
}

// SetBarrierHook installs fn to run at every synchronization barrier with
// every shard quiescent and all clocks aligned to the barrier time. Call
// it once, before Run.
func (k *Kernel) SetBarrierHook(fn func(now Time)) { k.onBarrier = fn }

// PlanShards partitions the network's nodes into at most workers shards
// for the conservative kernel, returning the node -> shard assignment and
// the shard count. Multi-region topologies shard by region (the paper's
// WAN: four regions, 40 ms minimum cross-region delay — intra-region
// links fall back to the 50 µs local delay, so splitting a region would
// collapse the lookahead three orders of magnitude). Single-region
// topologies (LAN) stripe nodes round-robin: every inter-node link
// carries the same base delay, so any partition keeps the full lookahead.
// Returns (nil, 1) when sharding is impossible or pointless: fewer than
// two workers, no GeoModel fast path, fewer than two nodes.
func (nw *Network) PlanShards(workers int) ([]int, int) {
	n := len(nw.handlers)
	if workers <= 1 || nw.geo == nil || n < 2 {
		return nil, 1
	}
	regions := make([]int, n)
	distinct := make(map[int]int) // region id -> dense index
	for i := 0; i < n; i++ {
		r := nw.geo.RegionOf(i)
		if _, ok := distinct[r]; !ok {
			distinct[r] = len(distinct)
		}
		regions[i] = distinct[r]
	}
	shardOf := make([]int, n)
	var nshards int
	if len(distinct) >= 2 {
		nshards = min(workers, len(distinct))
		for i := 0; i < n; i++ {
			shardOf[i] = regions[i] % nshards
		}
	} else {
		nshards = min(workers, n)
		for i := 0; i < n; i++ {
			shardOf[i] = i % nshards
		}
	}
	if nshards < 2 || nw.MinCrossBase(shardOf) <= 0 {
		return nil, 1
	}
	return shardOf, nshards
}

// NewKernel builds the sharded kernel over an existing global simulator
// and network: one fresh Sim per shard plus one for the client source,
// the node -> shard routing installed on the network, and the lookahead
// derived from the assignment. clientNode is the scheduling affinity of
// the client source (by convention the first id past the replicas).
// Replicas must be constructed against NodeOn views after this call, and
// global-affinity events (scenario timelines, ticks) must stay on the
// global simulator.
func NewKernel(global *Sim, nw *Network, shardOf []int, nshards, clientNode, workers int) *Kernel {
	n := len(nw.handlers)
	if len(shardOf) != n {
		panic(fmt.Sprintf("simnet: shard plan covers %d of %d nodes", len(shardOf), n))
	}
	look := nw.MinCrossBase(shardOf)
	if look <= 0 {
		panic("simnet: sharded kernel requires a positive lookahead")
	}
	if workers < 1 {
		workers = nshards
	}
	k := &Kernel{
		global:     global,
		nw:         nw,
		shardOf:    shardOf,
		clientNode: clientNode,
		look:       Time(look),
		workers:    workers,
		shards:     make([]*Sim, nshards),
		simOf:      make([]*Sim, n),
		outbox:     make([][]*event, nshards+1),
	}
	newShard := func() *Sim {
		s := NewWithQueue(global.seed, global.kind)
		s.ordCnt = make([]uint64, clientNode+2)
		s.ordFixed = true
		return s
	}
	for i := range k.shards {
		k.shards[i] = newShard()
	}
	k.client = newShard()
	for node, sh := range shardOf {
		k.simOf[node] = k.shards[sh]
	}
	nw.SetSharded(k.simOf)
	for i := range k.shards {
		i := i
		si := k.shards[i]
		si.route = func(e *event, dst int) bool {
			if dst == NodeNone {
				panic("simnet: node event scheduled a global-affinity event under the sharded kernel")
			}
			if dst == clientNode {
				panic("simnet: replica event scheduled onto the client source shard")
			}
			if k.simOf[dst] == si {
				return false
			}
			k.outbox[i] = append(k.outbox[i], e)
			return true
		}
	}
	k.client.route = func(e *event, dst int) bool {
		if dst == clientNode {
			return false
		}
		k.outbox[nshards] = append(k.outbox[nshards], e)
		return true
	}
	// Global-affinity code occasionally schedules node events outside any
	// shard context (fault injection arming replica work); at setup and at
	// barriers every shard is quiescent, so routing them straight into the
	// owning queue is safe.
	global.route = func(e *event, dst int) bool {
		if dst == NodeNone {
			return false
		}
		k.ownSim(dst).q.push(e)
		return true
	}
	return k
}

// ownSim returns the simulator that owns a destination affinity.
func (k *Kernel) ownSim(node int) *Sim {
	if node == k.clientNode {
		return k.client
	}
	return k.simOf[node]
}

// NodeOn returns the node-pinned scheduling view replicas must be
// constructed with: node state lives on its shard's simulator.
func (k *Kernel) NodeOn(node int) NodeSim { return On(k.ownSim(node), node) }

// ClientOn returns the client source's scheduling view.
func (k *Kernel) ClientOn() NodeSim { return On(k.client, k.clientNode) }

// Lookahead returns the kernel's window length.
func (k *Kernel) Lookahead() Duration { return Duration(k.look) }

// NumShards returns the number of replica shards.
func (k *Kernel) NumShards() int { return len(k.shards) }

// Workers returns the configured worker-pool size.
func (k *Kernel) Workers() int { return k.workers }

// Windows returns the number of parallel windows executed.
func (k *Kernel) Windows() uint64 { return k.windows }

// Merged returns the number of cross-shard events handed over at
// barriers.
func (k *Kernel) Merged() uint64 { return k.merged }

// MaxOutbox returns the high-water mark of any shard's outbox — the
// bound on inbox buffering the conservative protocol actually needed.
func (k *Kernel) MaxOutbox() int { return k.maxOutbox }

// EventsProcessed sums executed events over every simulator of the
// kernel; equal to the serial run's count for the same workload.
func (k *Kernel) EventsProcessed() uint64 {
	total := k.global.events + k.client.events
	for _, s := range k.shards {
		total += s.events
	}
	return total
}

// Halted reports whether the run was stopped by Halt (necessarily from a
// global event).
func (k *Kernel) Halted() bool { return k.global.halted }

// shardJob is one window assignment handed to a worker.
type shardJob struct {
	s   *Sim
	end Time
}

// Run executes events on every shard until the clocks reach until
// (inclusive, matching Sim.Run), the queues drain, or a global event
// calls Halt.
func (k *Kernel) Run(until Time) {
	untilX := until + 1
	nworkers := min(k.workers, len(k.shards))
	jobs := make(chan shardJob, len(k.shards))
	var winWG, workerWG sync.WaitGroup
	for w := 0; w < nworkers; w++ {
		workerWG.Add(1)
		go func() {
			defer workerWG.Done()
			for j := range jobs {
				j.s.Run(j.end - 1)
				winWG.Done()
			}
		}()
	}
	defer func() {
		close(jobs)
		workerWG.Wait()
	}()

	for w := k.global.now; !k.global.halted; {
		end := w + k.look
		if g := k.global.q.peek(); g != nil && g.at < end {
			end = g.at
		}
		if end > untilX {
			end = untilX
		}
		if end > w {
			// The client source runs the window first; its outbox must merge
			// before the replica shards run the same window, because
			// client -> replica delays may undercut the lookahead.
			k.client.Run(end - 1)
			if k.client.halted {
				panic("simnet: Halt from a client event requires the serial kernel")
			}
			k.mergeOutbox(len(k.shards), w, end, w)
			winWG.Add(len(k.shards))
			for _, s := range k.shards {
				jobs <- shardJob{s, end}
			}
			winWG.Wait()
			k.windows++
			for i, s := range k.shards {
				if s.halted {
					panic("simnet: Halt from a node event requires the serial kernel")
				}
				k.mergeOutbox(i, w, end, end)
			}
		}
		if end == untilX {
			// The window just covered through until itself; the horizon sits
			// past every runnable event, so there is no barrier to take (a
			// barrier would advance the clocks beyond the serial run's).
			break
		}
		// Barrier: every shard quiescent through end-1. Align the clocks so
		// global events (and anything they send) observe the serial clock.
		k.setNow(end)
		if k.onBarrier != nil {
			k.onBarrier(end)
		}
		for !k.global.halted {
			g := k.global.q.peek()
			if g == nil || g.at != end {
				break
			}
			k.global.Step()
		}
		w = end
		if k.global.halted || k.idle() {
			break
		}
	}
	if !k.global.halted {
		k.setNow(until)
	} else {
		// Serial Halt leaves the clock at the halting event's time; align
		// the shard clocks with it.
		k.setNow(k.global.now)
	}
}

// mergeOutbox drains outbox[src] into the destination queues, enforcing
// the conservative floor: replica-shard events must land at or beyond the
// window end (window start + lookahead); client-source events at or
// beyond the window start (the client ran before the shards).
func (k *Kernel) mergeOutbox(src int, windowStart, windowEnd, floor Time) {
	box := k.outbox[src]
	if len(box) > k.maxOutbox {
		k.maxOutbox = len(box)
	}
	for _, e := range box {
		if e.at < floor {
			panic(fmt.Sprintf(
				"simnet: lookahead violated: cross-shard event at %v below floor %v (window [%v,%v))",
				e.at, floor, windowStart, windowEnd))
		}
		if k.onMerge != nil {
			k.onMerge(e, src, windowStart, windowEnd)
		}
		k.ownSim(ordDst(e.ord)).q.push(e)
		k.merged++
	}
	clear(box) // drop references before reuse
	k.outbox[src] = box[:0]
}

// setNow advances every clock to t (never backwards).
func (k *Kernel) setNow(t Time) {
	if k.global.now < t {
		k.global.now = t
	}
	if k.client.now < t {
		k.client.now = t
	}
	for _, s := range k.shards {
		if s.now < t {
			s.now = t
		}
	}
}

// idle reports whether every queue has drained (outboxes are empty at
// every barrier by construction).
func (k *Kernel) idle() bool {
	if k.global.q.len() > 0 || k.client.q.len() > 0 {
		return false
	}
	for _, s := range k.shards {
		if s.q.len() > 0 {
			return false
		}
	}
	return true
}
