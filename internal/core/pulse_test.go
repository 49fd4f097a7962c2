package core

import (
	"testing"
	"time"

	"repro/internal/pbft"
	"repro/internal/simnet"
	"repro/internal/types"
)

// countingSB is a minimal SB stub that records Propose calls: always
// proposable, never delivering. It lets the pulse-loop tests observe
// exactly how many proposal pulses fired per instance.
type countingSB struct {
	proposed int
	next     uint64
}

func (c *countingSB) CanPropose() bool       { return true }
func (c *countingSB) NextProposeSeq() uint64 { return c.next }
func (c *countingSB) Propose(*types.Block) error {
	c.proposed++
	c.next++
	return nil
}
func (c *countingSB) SetTarget(uint64)    {}
func (c *countingSB) IsLeader() bool      { return true }
func (c *countingSB) Leader() int         { return 0 }
func (c *countingSB) View() uint64        { return 0 }
func (c *countingSB) Stop()               {}
func (c *countingSB) Resume()             {}
func (c *countingSB) Complain()           {}
func (c *countingSB) ReleaseBelow(uint64) {}
func (c *countingSB) InFlight() int       { return 0 }

func (c *countingSB) Handle(int, pbft.Message) bool   { return false }
func (c *countingSB) SkipDelivered(*types.Block) bool { return false }
func (c *countingSB) Log(uint64) []*types.Block       { return nil }

// TestPulseStaleWakeupAfterRecover is the core half of the timer re-arm
// audit: a Stop/Recover cycle leaves a stale pulse wakeup in flight (the
// closure-free pulse events carry the generation they were scheduled
// under), and that wakeup must neither fire a pulse nor reschedule itself
// — otherwise every crash-recovery would leave two proposal loops running
// on the instance, doubling its pulse rate forever. Runs against both
// scheduler queues.
func TestPulseStaleWakeupAfterRecover(t *testing.T) {
	for _, q := range []struct {
		name string
		kind simnet.QueueKind
	}{{"wheel", simnet.QueueWheel}, {"heap", simnet.QueueHeap}} {
		t.Run(q.name, func(t *testing.T) {
			sim := simnet.NewWithQueue(1, q.kind)
			nw := simnet.NewNetwork(sim, 1, simnet.NewFixed(time.Millisecond), nil)
			sb := &countingSB{}
			r := NewReplica(Config{
				N: 1, F: 0, ID: 0, M: 1,
				Mode:   Mode{Name: "stub", NewGlobal: func(m int) GlobalOrdering { return WorkerOrdering{Ord: nil} }},
				Params: Params{BatchTimeout: 100 * time.Millisecond},
				SB:     func(instance int, hooks SBHooks) SB { return sb },
			}, simnet.On(sim, 0), nw)
			r.Start() // first pulse at t=100ms
			sim.Run(simnet.Time(150 * time.Millisecond))
			if sb.proposed != 1 {
				t.Fatalf("proposed %d pulses before the crash, want 1", sb.proposed)
			}
			// Crash with the 200ms pulse in flight, then recover quickly:
			// Recover schedules a fresh loop (next pulse at 260ms); the stale
			// 200ms wakeup must be a no-op.
			r.Stop()
			sim.Run(simnet.Time(160 * time.Millisecond))
			r.Recover()
			sim.Run(simnet.Time(470 * time.Millisecond))
			// Single loop: pulses at 260, 360, 460 only.
			if got := sb.proposed - 1; got != 3 {
				t.Fatalf("proposed %d pulses after recovery in 310ms, want 3 (stale wakeup fired or loop doubled)", got)
			}
			// A second rapid Stop/Recover cycle with the 560ms pulse in
			// flight must also leave exactly one loop.
			r.Stop()
			r.Recover() // next pulse at 570ms... then 670, 770, 870, 970
			before := sb.proposed
			sim.Run(simnet.Time(1000 * time.Millisecond))
			if got := sb.proposed - before; got != 5 {
				t.Fatalf("proposed %d pulses after second recovery in 530ms, want 5", got)
			}
		})
	}
}
