package pbft

import (
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/types"
)

// TestQuorumMathAcrossScales pins the fault-threshold arithmetic for the
// whole supported cluster-size range (the F-scale axis up to the SDK's
// MaxReplicas = 128): f = (n-1)/3 tolerates the most faults with n
// replicas, the commit quorum is 2f+1, and two quorums always intersect
// in at least one honest replica (2*(2f+1) - n > f).
func TestQuorumMathAcrossScales(t *testing.T) {
	for n := 4; n <= 128; n++ {
		f := (n - 1) / 3
		q := Quorum(n, f)
		if got, want := q, (n+f+2)/2; got != want {
			t.Fatalf("n=%d: Quorum() = %d, want ceil((n+f+1)/2) = %d", n, got, want)
		}
		if n == 3*f+1 && q != 2*f+1 {
			t.Fatalf("n=%d=3f+1: Quorum() = %d, want the classic 2f+1 = %d", n, q, 2*f+1)
		}
		if 3*f+1 > n {
			t.Fatalf("n=%d: f=%d violates n >= 3f+1", n, f)
		}
		if q > n-f {
			t.Fatalf("n=%d f=%d: quorum %d unreachable with f crashed replicas", n, f, q)
		}
		if overlap := 2*q - n; overlap <= f {
			t.Fatalf("n=%d f=%d: quorum intersection %d not > f", n, f, overlap)
		}
	}
}

// TestNormalCaseDeliveryAt128 runs one full consensus round at the
// largest supported cluster size message-level: every replica must
// deliver with the 2f+1 quorums of n=128 (f=42), exercising the
// slice-based vote sets at their widest.
func TestNormalCaseDeliveryAt128(t *testing.T) {
	n := 128
	f := (n - 1) / 3
	h := newHarness(t, n, f, nil)
	b := mkBlock(0, 3)
	if err := h.engines[0].Propose(b); err != nil {
		t.Fatal(err)
	}
	h.sim.RunAll(0)
	for i, got := range h.delivered {
		if len(got) != 1 || got[0].SN != 0 {
			t.Fatalf("replica %d delivered %v", i, got)
		}
	}
}

// dropTransport swallows every message: the engine under test runs in
// isolation and only its local state is observed.
type dropTransport struct{}

func (dropTransport) Register(int, types.Handler) {}
func (dropTransport) Broadcast(int, any)          {}
func (dropTransport) Send(int, int, any)          {}

// TestProgressDetectorTracksShrinkingDeadline is the regression for the
// event-thrifty failure detector: when the deadline moves *earlier* than
// an already-scheduled wakeup (a delivery reset timeoutMult after a view
// change doubled it), the detector must still fire at the new, earlier
// deadline rather than waiting for the stale wakeup. The timer re-arm
// audit for the scheduler overhaul runs it against both queue
// implementations — the detector's stale-wakeup logic must not depend on
// which queue delivers the wakeups.
func TestProgressDetectorTracksShrinkingDeadline(t *testing.T) {
	for _, q := range []struct {
		name string
		kind simnet.QueueKind
	}{{"wheel", simnet.QueueWheel}, {"heap", simnet.QueueHeap}} {
		t.Run(q.name, func(t *testing.T) {
			sim := simnet.NewWithQueue(1, q.kind)
			e := newEngine(Config{N: 4, F: 1, ID: 1, Timeout: 10 * time.Second}, dropTransport{}, simnet.On(sim, 1))
			// Arm with a doubled timeout: wakeup scheduled at t=20s.
			e.timeoutMult = 2
			e.SetTarget(5)
			// A successful delivery elsewhere resets the multiplier and
			// re-arms: the deadline shrinks to t=10s, before the in-flight
			// 20s wakeup.
			e.timeoutMult = 1
			e.resetProgressTimer()
			sim.Run(simnet.Time(10*time.Second) - 1)
			if e.viewChanging {
				t.Fatal("view change before the 10s deadline")
			}
			sim.Run(simnet.Time(10 * time.Second))
			if !e.viewChanging {
				t.Fatal("detector missed the shrunk 10s deadline (stale 20s wakeup)")
			}
			// The stale wakeup at 20s must fire as a no-op.
			sim.Run(simnet.Time(25 * time.Second))
		})
	}
}
