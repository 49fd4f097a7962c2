package core_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/partition"
	"repro/internal/pbft"
	"repro/internal/simnet"
	"repro/internal/types"
	"repro/internal/wire"
)

func submitShared(replica, tx any) { _ = replica.(*core.Replica).SubmitTx(tx.(*types.Transaction)) }

// TestUnstampedSharedPointersAcrossShards runs a workload whose transaction
// pointers — and, through the simulated network, block pointers — are
// shared by all replicas, with one replica crashing and catching up by
// state transfer, once with a resolver per replica and once with one
// resolver shared by all. What a replica stamps on a shared Transaction is
// only its resolver's memo, which names that resolver: a memo read by
// another replica's resolver, or a slot taken from it, would point one
// replica at another's records (wrong outcomes, diverging ledgers). The
// table drains after quiescence. ("Shards" in the name: the replicas share
// one event loop, not goroutines.)
func TestUnstampedSharedPointersAcrossShards(t *testing.T) {
	for _, shared := range []bool{false, true} {
		name := "private"
		if shared {
			name = "shared"
		}
		t.Run(name, func(t *testing.T) { sharedPointers(t, shared) })
	}
}

func sharedPointers(t *testing.T, shared bool) {
	const n, victim = 4, 2
	sim := simnet.New(7)
	nw := faultnet.Wrap(simnet.NewNetwork(sim, n, simnet.NewLAN(), modeledSize), n)
	names := accountNames(12)
	results := make([]map[types.TxID]bool, n) // results[i] is written by replica i only
	replicas := make([]*core.Replica, n)
	var resolver *core.Resolver
	for i := range replicas {
		i := i
		results[i] = make(map[types.TxID]bool)
		cfg := core.Config{
			N: n, F: 1, ID: i, M: n,
			Mode: core.OrthrusMode(),
			Params: core.Params{
				BatchSize:    8,
				BatchTimeout: 50 * time.Millisecond,
				ViewTimeout:  2 * time.Second,
				EpochLen:     4,
			},
			Genesis: genesisRich(names...),
			OnConfirm: func(tx *types.Transaction, success bool, _ core.StageTrace) {
				if _, dup := results[i][tx.ID()]; dup {
					t.Errorf("replica %d confirmed tx %s twice", i, tx.ID())
				}
				results[i][tx.ID()] = success
			},
		}
		if shared {
			if resolver == nil {
				resolver = core.NewResolver(cfg)
			}
			cfg.Resolver = resolver
		}
		replicas[i] = core.NewReplica(cfg, simnet.On(sim, i), nw)
	}
	for _, r := range replicas {
		r.Start()
	}
	rng := rand.New(rand.NewSource(7))
	client := simnet.On(sim, n)
	var txs []*types.Transaction
	for i := 0; i < 240; i++ {
		from, from2, to := names[rng.Intn(12)], names[rng.Intn(12)], names[rng.Intn(12)]
		var tx *types.Transaction
		switch i % 8 {
		case 3:
			tx = types.NewMultiPayment(from, []types.Transfer{
				{From: from, To: to, Amount: 2}, {From: from2, To: to, Amount: 3}}, uint64(i))
		case 5:
			tx = types.NewContractCall(from, []types.Key{from}, 1,
				[]types.Op{types.NewSharedAssign("rec", types.Amount(i))}, uint64(i))
		default:
			tx = types.NewPayment(from, to, types.Amount(rng.Intn(9)+1), uint64(i))
		}
		tx.ID() // memoized before the pointer is shared, as cluster.Run does
		txs = append(txs, tx)
		at := simnet.Time(time.Duration(10+15*i) * time.Millisecond)
		client.At(at, func() {
			tx.SubmitNS = int64(client.Now())
			for j, r := range replicas {
				client.CallAtNode(j, client.Now()+simnet.Time(time.Millisecond), submitShared, r, tx)
			}
		})
	}
	sim.At(simnet.Time(time.Second), func() {
		replicas[victim].Stop()
		nw.SetDown(victim, true)
	})
	sim.At(simnet.Time(1300*time.Millisecond), func() {
		nw.SetDown(victim, false)
		replicas[victim].Recover()
	})
	sim.Run(simnet.Time(12 * time.Second))

	if replicas[victim].StateTransferApplied() == 0 {
		t.Fatal("the victim never caught up by state transfer")
	}
	base := replicas[0].Store().Snapshot()
	for i, r := range replicas {
		if !r.Store().Snapshot().Equal(base) {
			t.Fatalf("replica %d's ledger diverges from replica 0's", i)
		}
		for _, tx := range txs {
			ok, confirmed := results[i][tx.ID()]
			if want := results[0][tx.ID()]; !confirmed || ok != want {
				t.Fatalf("replica %d: tx %s confirmed=%v outcome=%v, replica 0 has %v", i, tx.ID(), confirmed, ok, want)
			}
		}
		if ls := r.LiveSet(); ls.Trackers > len(txs)/2 {
			t.Fatalf("replica %d still holds %d of %d table records after quiescence", i, ls.Trackers, len(txs))
		}
	}
}

// captureNet is a transport that delivers nothing: it keeps the replica's
// handler, so the test can hand it messages, and the last checkpoint the
// replica broadcast.
type captureNet struct {
	handle types.Handler
	ckpt   *core.CheckpointMsg
}

func (c *captureNet) Register(_ int, h types.Handler) { c.handle = h }
func (c *captureNet) Send(int, int, any)              {}
func (c *captureNet) Broadcast(_ int, msg any) {
	if m, ok := msg.(*core.CheckpointMsg); ok {
		c.ckpt = m
	}
}

// handClock never fires and reads the time the test sets: the test drives
// the replica.
type handClock struct{ now types.Time }

func (c *handClock) Now() types.Time                           { return c.now }
func (*handClock) CallAt(types.Time, func(a, b any), any, any) {}

// handSB is an SB the test delivers through by hand.
type handSB struct{ deliver func(*types.Block) }

func (*handSB) CanPropose() bool           { return false }
func (*handSB) NextProposeSeq() uint64     { return 0 }
func (*handSB) Propose(*types.Block) error { return nil }
func (*handSB) SetTarget(uint64)           {}
func (*handSB) IsLeader() bool             { return false }
func (*handSB) Leader() int                { return 1 }
func (*handSB) View() uint64               { return 0 }
func (*handSB) Stop()                      {}
func (*handSB) Resume()                    {}
func (*handSB) Complain()                  {}
func (*handSB) ReleaseBelow(uint64)        {}
func (*handSB) InFlight() int              { return 0 }

func (*handSB) Handle(int, pbft.Message) bool   { return false }
func (*handSB) SkipDelivered(*types.Block) bool { return false }
func (*handSB) Log(uint64) []*types.Block       { return nil }

// TestTableBoundedOverEpochs runs 48 epochs of the real path — every
// transaction arrives as a wire-decoded copy — through one replica and
// checks that checkpoint GC recycles slots: the table's capacity stops
// growing after the first few epochs, and its live count
// (LiveSet.Trackers) returns to zero whenever nothing is in flight.
// The replica is the harness's observer configuration (ID 0, OnConfirm
// set), and the clock reads the epoch number plus one: the stage trace of
// every confirmation must carry this epoch's stamps — Received only when
// the client submission arrived — never a recycled slot's.
func TestTableBoundedOverEpochs(t *testing.T) {
	const m, epochLen, perBlock, epochs = 4, 4, 32, 48
	names := accountNames(64)
	var payers [m][]types.Key // a payer's transactions ride its own instance
	for _, k := range names {
		payers[partition.Assign(k, m)] = append(payers[partition.Assign(k, m)], k)
	}
	net := &captureNet{}
	sbs := make([]*handSB, m)
	confirmed := 0
	clock := &handClock{}
	r := core.NewReplica(core.Config{
		N: 4, F: 1, ID: 0, M: m, Mode: core.OrthrusMode(), Params: core.Params{EpochLen: epochLen},
		Genesis: genesisRich(names...),
		SB: func(instance int, hooks core.SBHooks) core.SB {
			sbs[instance] = &handSB{deliver: hooks.OnDeliver}
			return sbs[instance]
		},
		OnConfirm: func(_ *types.Transaction, ok bool, st core.StageTrace) {
			if ok {
				confirmed++
			}
			want := core.StageTrace{Delivered: clock.now, Confirmed: clock.now}
			if clock.now%2 == 1 {
				want.Received = clock.now
			}
			if st != want {
				t.Errorf("epoch %d: stage trace %+v, want %+v", clock.now-1, st, want)
			}
		},
	}, clock, net)
	nonce := uint64(0)
	var capAt [epochs]int
	for e := 0; e < epochs; e++ {
		clock.now = types.Time(e + 1)
		for sn := e * epochLen; sn < (e+1)*epochLen; sn++ {
			for inst := 0; inst < m; inst++ {
				b := &types.Block{Instance: inst, SN: uint64(sn), Rank: uint64(sn) + 1, Proposer: 1,
					State: make(types.StateVector, m)}
				for i := 0; i < perBlock; i++ {
					nonce++
					from := payers[inst][i%len(payers[inst])]
					b.Txs = append(b.Txs, *types.NewPayment(from, names[nonce%64], 1, nonce))
				}
				frame, err := wire.Append(nil, &pbft.PrePrepare{Instance: inst, Seq: b.SN, Block: b})
				if err != nil {
					t.Fatal(err)
				}
				msg, err := wire.Decode(frame)
				if err != nil {
					t.Fatal(err)
				}
				decoded := msg.(*pbft.PrePrepare).Block
				if e%2 == 0 { // half the epochs also see the client submissions
					for i := range decoded.Txs {
						tx := decoded.Txs[i]
						net.handle(9, &core.SubmitMsg{Tx: &tx})
					}
				}
				sbs[inst].deliver(decoded)
			}
		}
		// The replica announced the epoch; its peers' votes stabilize it,
		// which runs the checkpoint GC.
		if net.ckpt == nil || net.ckpt.Epoch != uint64(e) {
			t.Fatalf("epoch %d: no checkpoint broadcast", e)
		}
		for rid := 1; rid <= 3; rid++ {
			net.handle(rid, &core.CheckpointMsg{Epoch: uint64(e), Digest: net.ckpt.Digest, Replica: rid})
		}
		if _, stable := r.Epoch(); stable != uint64(e)+1 {
			t.Fatalf("epoch %d did not stabilize (stable = %d)", e, stable)
		}
		capAt[e] = r.TableCap()
		if live := r.LiveSet().Trackers; live != 0 {
			t.Fatalf("epoch %d: %d table records live after GC with nothing in flight", e, live)
		}
	}
	if want := epochs * epochLen * m * perBlock; confirmed != want {
		t.Fatalf("confirmed %d of %d", confirmed, want)
	}
	if capAt[epochs-1] != capAt[2] {
		t.Fatalf("table capacity kept growing past the first epochs: %v", capAt)
	}
	if perEpoch := epochLen * m * perBlock; capAt[epochs-1] > 2*perEpoch {
		t.Fatalf("table capacity %d exceeds two epochs of transactions (%d)", capAt[epochs-1], 2*perEpoch)
	}
}
