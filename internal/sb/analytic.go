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
// out-scaling). It is validated against the message-level engine in
// analytic_test.go.
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
	// size: the closed form is a pure function of (blockSize, latency
	// matrix, straggler out-scales), and a steady-state run proposes
	// thousands of same-sized blocks (empty pulses above all). Hitting the
	// cache turns a proposal from O(n^2 log n) into O(n) — the difference
	// between minutes and seconds for the n = 100 F-scale cells. Entries
	// snapshot the out-scale vector and are re-derived when it changes;
	// the cache resets when it reaches quorumCacheMax distinct sizes.
	quorumCache map[int]*quorumTimes
}

// quorumTimes is one memoized closed-form solution: per-replica commit
// offsets from the proposal time, valid for the captured out-scales.
type quorumTimes struct {
	committedOff []simnet.Time
	outScale     []float64
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

// Port returns replica id's view of the instance. The caller installs the
// delivery callback before the first proposal.
func (inst *Instance) Port(id int, deliver func(*types.Block)) *Port {
	p := inst.ports[id]
	p.deliver = deliver
	return p
}

// propose computes per-replica delivery times for a block proposed now and
// schedules the delivery events. The closed form is memoized per block
// size (see quorumCache).
func (inst *Instance) propose(b *types.Block) {
	n := inst.cfg.N
	blockSize := wire.BlockSize(len(b.Txs), inst.cfg.TxSize)
	t0 := inst.sim.Now()
	qt := inst.quorumTimesFor(blockSize)
	// Schedule in-order deliveries (closure-free call events: n per block).
	for j := 0; j < n; j++ {
		at := t0 + qt.committedOff[j]
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

// quorumTimesFor returns the memoized commit-time offsets for a block of
// the given wire size, recomputing when the size is new or any straggler
// out-scale changed since the entry was derived.
func (inst *Instance) quorumTimesFor(blockSize int) *quorumTimes {
	n := inst.cfg.N
	if qt, ok := inst.quorumCache[blockSize]; ok {
		fresh := true
		for i := 0; i < n; i++ {
			if qt.outScale[i] != inst.nw.OutScale(i) {
				fresh = false
				break
			}
		}
		if fresh {
			return qt
		}
	}
	quorum := pbft.Quorum(n, inst.cfg.F)
	// Pre-prepare dissemination from the leader (offsets from propose
	// time; BaseDelay is deterministic so offsets are time-invariant).
	for i := 0; i < n; i++ {
		inst.arrive[i] = simnet.Time(inst.nw.BaseDelay(inst.leader, i, blockSize))
	}
	// Prepared at j: pre-prepare arrived and a quorum of prepares arrived.
	// Replica i broadcasts its prepare the moment the pre-prepare reaches
	// it; the vote from i reaches j after the (i,j) control delay.
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			inst.tmp[i] = inst.arrive[i] + simnet.Time(inst.nw.BaseDelay(i, j, wire.VoteSize))
		}
		slices.Sort(inst.tmp)
		p := inst.tmp[quorum-1]
		if inst.arrive[j] > p {
			p = inst.arrive[j]
		}
		inst.prepared[j] = p
	}
	// Committed at j: prepared and a quorum of commits arrived; replica i
	// broadcasts its commit the moment it is prepared.
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			inst.tmp[i] = inst.prepared[i] + simnet.Time(inst.nw.BaseDelay(i, j, wire.VoteSize))
		}
		slices.Sort(inst.tmp)
		c := inst.tmp[quorum-1]
		if inst.prepared[j] > c {
			c = inst.prepared[j]
		}
		inst.committed[j] = c
	}
	qt := &quorumTimes{
		committedOff: append([]simnet.Time(nil), inst.committed[:n]...),
		outScale:     make([]float64, n),
	}
	for i := 0; i < n; i++ {
		qt.outScale[i] = inst.nw.OutScale(i)
	}
	if inst.quorumCache == nil || len(inst.quorumCache) >= quorumCacheMax {
		inst.quorumCache = make(map[int]*quorumTimes, 64)
	}
	inst.quorumCache[blockSize] = qt
	return qt
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

// SetTarget implements core.SB. The analytic instance has no failure
// detector (it is used only in fault-free large-scale runs), so this is a
// no-op.
func (p *Port) SetTarget(uint64) {}

// IsLeader implements core.SB.
func (p *Port) IsLeader() bool { return p.id == p.inst.leader }

// Leader implements core.SB.
func (p *Port) Leader() int { return p.inst.leader }

// View implements core.SB: the analytic instance never changes views.
func (p *Port) View() uint64 { return 0 }

// Stop implements core.SB.
func (p *Port) Stop() { p.stopped = true }

// unmodeled is the rest of core.SB, what the closed form leaves out: a
// stopped port stays stopped, no messages are exchanged (any it is handed
// is refused), no view changes, no state-transfer repair, no delivered-block
// log to serve or count.
type unmodeled struct{}

func (unmodeled) Resume()                         {}
func (unmodeled) Handle(int, pbft.Message) bool   { return false }
func (unmodeled) Complain()                       {}
func (unmodeled) SkipDelivered(*types.Block) bool { return false }
func (unmodeled) Log(uint64) []*types.Block       { return nil }
func (unmodeled) ReleaseBelow(uint64)             {}
func (unmodeled) InFlight() int                   { return 0 }
