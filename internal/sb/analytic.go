// Package sb provides an analytic sequenced-broadcast implementation: a
// drop-in replacement for message-level PBFT that computes each replica's
// delivery time for a block in closed form from the network's deterministic
// latency matrix, instead of simulating the O(n^2) prepare/commit traffic.
//
// Why: a figure-3 style sweep runs 6 protocols x {8..128} replicas with
// m = n instances; at n = 128 each block costs ~33k message events, which
// makes message-level simulation infeasible on a laptop. The analytic model
// schedules exactly n delivery events per block while reproducing PBFT's
// timing: pre-prepare dissemination, a 2f+1 prepare quorum, and a 2f+1
// commit quorum, all over the same latency matrix (including straggler
// out-scaling) and the leader's NIC egress, which its n-1 pre-prepare
// copies reserve like a message-level broadcast (votes go uncharged). It
// is validated against the message-level engine in analytic_test.go.
//
// Limitations (by design): no view changes and no Byzantine behavior — the
// large-scale experiments that use it (Figs. 3 and 4) run fault-free with
// at most a straggler, which is slow but correct. Fault experiments
// (Figs. 7 and 8) use message-level PBFT at n = 16.
package sb

import (
	"fmt"
	"slices"

	"repro/internal/pbft"
	"repro/internal/simnet"
	"repro/internal/types"
	"repro/internal/wire"
)

// Config parameterizes one analytic SB instance (shared by all replicas).
// Window and TxSize arrive resolved (core.Params.WithDefaults), the same
// values the message-level engines of the run would get.
type Config struct {
	N        int // replicas
	F        int // fault threshold
	Instance int // SB instance index
	Window   int // pipelined proposals
	TxSize   int // modeled per-transaction size (wire.ModeledSize)
}

// Instance is the shared state of one analytic SB instance. Each replica
// holds a *Port into it; the leader's port proposes, every port delivers.
type Instance struct {
	cfg    Config
	sim    *simnet.Sim
	nw     *simnet.Network
	leader int
	nextSN uint64

	ports       []*Port
	lastDeliver []simnet.Time // per replica, to enforce in-order delivery

	// Scratch buffers reused across proposals.
	arrive    []simnet.Time
	prepared  []simnet.Time
	committed []simnet.Time
	tmp       []simnet.Time

	// quorumCache memoizes the per-replica commit-time offsets by block
	// size for proposals on an idle leader egress: the closed form is then
	// a pure function of (blockSize, latency matrix, straggler out-scales),
	// and a steady-state run proposes thousands of same-sized blocks.
	// Hitting it turns a proposal from O(n^2) into O(n) — minutes versus
	// seconds for the n = 100 F-scale cells. Out-scales must be final
	// before the first proposal (an analytic run sets its stragglers at
	// start and takes no scenario); the cache resets at quorumCacheMax
	// sizes. hits counts what it served.
	quorumCache map[int][]simnet.Time
	hits        uint64
}

// quorumCacheMax bounds the number of distinct block sizes memoized per
// instance (a few KB each at n = 128); beyond it the cache resets.
const quorumCacheMax = 256

// NewInstance creates the shared instance. The initial (and, in this
// implementation, permanent) leader of instance i is replica i mod n.
func NewInstance(cfg Config, sim *simnet.Sim, nw *simnet.Network) *Instance {
	inst := &Instance{
		cfg:         cfg,
		sim:         sim,
		nw:          nw,
		leader:      cfg.Instance % cfg.N,
		ports:       make([]*Port, cfg.N),
		lastDeliver: make([]simnet.Time, cfg.N),
		arrive:      make([]simnet.Time, cfg.N),
		prepared:    make([]simnet.Time, cfg.N),
		committed:   make([]simnet.Time, cfg.N),
		tmp:         make([]simnet.Time, cfg.N),
	}
	for i := range inst.ports {
		inst.ports[i] = &Port{inst: inst, id: i}
	}
	return inst
}

// CacheHits returns how many proposals quorumCache served, of how many.
func (inst *Instance) CacheHits() (hits, proposals uint64) { return inst.hits, inst.nextSN }

// Port returns replica id's view of the instance. The caller installs the
// delivery callback before the first proposal.
func (inst *Instance) Port(id int, deliver func(*types.Block)) *Port {
	p := inst.ports[id]
	p.deliver = deliver
	return p
}

// propose reserves the leader's egress for the block's n-1 pre-prepare
// copies, computes per-replica delivery times for it and schedules the
// delivery events.
func (inst *Instance) propose(b *types.Block) {
	n := inst.cfg.N
	blockSize := wire.BlockSize(len(b.Txs), inst.cfg.TxSize)
	t0 := inst.sim.Now()
	start, each := inst.nw.Egress(inst.leader, blockSize, n-1)
	committedOff := inst.quorumTimesFor(blockSize, start-t0, each)
	// Schedule in-order deliveries (closure-free call events: n per block).
	for j := 0; j < n; j++ {
		at := t0 + committedOff[j]
		if at <= inst.lastDeliver[j] {
			at = inst.lastDeliver[j] + 1
		}
		inst.lastDeliver[j] = at
		inst.sim.CallAt(at, portDeliver, inst.ports[j], b)
	}
	// Fold the traffic the closed form replaced into the network's message
	// count: one pre-prepare broadcast (n messages) plus n prepare and n
	// commit broadcasts (n^2 votes each), the same counts the message-level
	// engine would deliver fault-free.
	inst.nw.AddModeled(uint64(2*n*n + n))
}

// quorumTimesFor returns the commit-time offsets from the proposal for a
// block of the given wire size whose pre-prepare copies start leaving the
// leader wait after it, each taking each to send. Only an idle link
// (wait 0) uses quorumCache: behind a backlog the leader's own copy still
// lands at once while the others wait.
func (inst *Instance) quorumTimesFor(blockSize int, wait, each simnet.Time) []simnet.Time {
	n := inst.cfg.N
	if off, ok := inst.quorumCache[blockSize]; ok && wait == 0 {
		inst.hits++
		return off
	}
	// Pre-prepare dissemination from the leader (offsets from propose
	// time), its copies leaving in Broadcast's order, its own not queued.
	k := simnet.Time(0)
	for i := 0; i < n; i++ {
		inst.arrive[i] = simnet.Time(inst.nw.BaseDelay(inst.leader, i))
		if i != inst.leader {
			k++
			inst.arrive[i] += wait + k*each
		}
	}
	// Replica i broadcasts its prepare the moment the pre-prepare reaches
	// it, and its commit the moment it is prepared.
	inst.phase(inst.arrive, inst.prepared)
	inst.phase(inst.prepared, inst.committed)
	if wait > 0 {
		return inst.committed
	}
	if inst.quorumCache == nil || len(inst.quorumCache) >= quorumCacheMax {
		inst.quorumCache = make(map[int][]simnet.Time, 64)
	}
	off := slices.Clone(inst.committed)
	inst.quorumCache[blockSize] = off
	return off
}

// phase sets to[j], for every replica j, to when j has reached from[j]
// and holds a quorum of the votes each replica i sends at from[i], each
// arriving after the (i,j) delay.
func (inst *Instance) phase(from, to []simnet.Time) {
	q := pbft.Quorum(inst.cfg.N, inst.cfg.F)
	for j := range to {
		for i, t := range from {
			inst.tmp[i] = t + simnet.Time(inst.nw.BaseDelay(i, j))
		}
		to[j] = max(from[j], nth(inst.tmp, q-1))
	}
}

// nth returns the n-th smallest element of s (from 0), reordering s: a
// quickselect, linear where a sort costs n log n.
func nth(s []simnet.Time, n int) simnet.Time {
	for lo, hi := 0, len(s)-1; lo < hi; {
		p, i, j := s[lo+(hi-lo)/2], lo, hi
		for i <= j {
			for s[i] < p {
				i++
			}
			for s[j] > p {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i, j = i+1, j-1
			}
		}
		if n <= j {
			hi = j
		} else if n >= i {
			lo = i
		} else {
			break
		}
	}
	return s[n]
}

// portDeliver lands one analytic delivery at a replica's port (top-level
// so CallAt schedules it without a closure allocation).
func portDeliver(a, b any) {
	port := a.(*Port)
	if port.stopped || port.deliver == nil {
		return
	}
	port.delivered++
	port.deliver(b.(*types.Block))
}

// Port is one replica's handle on an analytic SB instance; it implements
// the core.SB interface structurally.
type Port struct {
	unmodeled
	inst      *Instance
	id        int
	deliver   func(*types.Block)
	delivered uint64
	stopped   bool
}

// CanPropose implements core.SB.
func (p *Port) CanPropose() bool {
	return !p.stopped && p.id == p.inst.leader &&
		int(p.inst.nextSN-p.delivered) < p.inst.cfg.Window
}

// NextProposeSeq implements core.SB.
func (p *Port) NextProposeSeq() uint64 { return p.inst.nextSN }

// Propose implements core.SB.
func (p *Port) Propose(b *types.Block) error {
	if !p.CanPropose() {
		return fmt.Errorf("sb: replica %d cannot propose on instance %d", p.id, p.inst.cfg.Instance)
	}
	if b.SN != p.inst.nextSN {
		return fmt.Errorf("sb: proposal SN %d != next %d", b.SN, p.inst.nextSN)
	}
	p.inst.nextSN++
	p.inst.propose(b)
	return nil
}

// IsLeader implements core.SB.
func (p *Port) IsLeader() bool { return p.id == p.inst.leader }

// Leader implements core.SB.
func (p *Port) Leader() int { return p.inst.leader }

// Stop implements core.SB.
func (p *Port) Stop() { p.stopped = true }

// unmodeled is the rest of core.SB, what the closed form leaves out: a
// stopped port stays stopped, no messages are exchanged (any it is handed
// is refused), no failure detector (it runs fault-free only), no view
// changes (View is 0), no state-transfer repair, no delivered-block log to
// serve or count.
type unmodeled struct{}

func (unmodeled) Resume()                         {}
func (unmodeled) SetTarget(uint64)                {}
func (unmodeled) View() uint64                    { return 0 }
func (unmodeled) Handle(int, pbft.Message) bool   { return false }
func (unmodeled) Complain()                       {}
func (unmodeled) SkipDelivered(*types.Block) bool { return false }
func (unmodeled) Log(uint64) []*types.Block       { return nil }
func (unmodeled) ReleaseBelow(uint64)             {}
func (unmodeled) InFlight() int                   { return 0 }
