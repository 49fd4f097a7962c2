package layers

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/benchmark/gen"
	"repro/benchmark/report"
	"repro/internal/ledger"
	"repro/internal/order"
	"repro/internal/partition"
	"repro/internal/pbft"
	"repro/internal/simnet"
	"repro/internal/types"
	"repro/internal/wire"
	"repro/orthrus"
)

// BlockSize is how many transactions one probe block carries, and
// MaxBlocks how many blocks a probe pushes through a layer.
const (
	BlockSize = 512
	MaxBlocks = 64
)

// Materialise builds the internal transaction a Spec describes. It must
// yield the same ID as the SDK's constructors do for the same Spec.
func Materialise(s gen.Spec) *types.Transaction {
	key := func(i int) types.Key { return types.Key(gen.Account(i)) }
	switch s.Kind {
	case gen.Payment:
		return types.NewPayment(key(s.From), key(s.To), types.Amount(s.Amount), uint64(s.Nonce))
	case gen.TwoPayer:
		return types.NewMultiPayment(key(s.From), []types.Transfer{
			{From: key(s.From), To: key(s.To), Amount: types.Amount(s.Amount)},
			{From: key(s.From2), To: key(s.To), Amount: types.Amount(s.Amount2)},
		}, uint64(s.Nonce))
	default:
		ops := make([]types.Op, s.NRecords)
		for i := range ops {
			ops[i] = types.NewSharedAssign(types.Key(gen.Record(s.Records[i])), types.Amount(s.Values[i]))
		}
		return types.NewContractCall(key(s.From), []types.Key{key(s.From)}, types.Amount(s.Amount), ops, uint64(s.Nonce))
	}
}

// probe is the state shared by one Probe call's layer probes.
type probe struct {
	tr     *Tracer
	root   int
	n      int                    // cluster size: instances, buckets
	blocks [][]*types.Transaction // the workload's transactions, BlockSize each
	txs    int
	out    []report.Metric
}

func (p *probe) add(name string, v float64, unit string) {
	p.out = append(p.out, report.Metric{Name: name, Value: v, Unit: unit})
}

// mallocs counts heap allocations made by fn.
func mallocs(fn func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// Probe pushes blocks of specs through every probed layer at cluster size
// n, records the spans in tr, and returns the probe metrics.
func Probe(specs []gen.Spec, n int, seed int64, tr *Tracer) ([]report.Metric, error) {
	p := &probe{tr: tr, n: n}
	for b := 0; b < MaxBlocks && (b+1)*BlockSize <= len(specs); b++ {
		block := make([]*types.Transaction, BlockSize)
		for i := range block {
			block[i] = Materialise(specs[b*BlockSize+i])
		}
		p.blocks = append(p.blocks, block)
	}
	if len(p.blocks) == 0 {
		return nil, fmt.Errorf("layers: %d transactions do not fill one block of %d", len(specs), BlockSize)
	}
	p.txs = len(p.blocks) * BlockSize
	p.root = tr.Begin("probes", 0, -1)
	defer tr.End(p.root)

	if err := p.wire(); err != nil {
		return nil, err
	}
	if err := p.transport(); err != nil {
		return nil, err
	}
	if err := p.partition(); err != nil {
		return nil, err
	}
	p.order()
	if err := p.ledger(); err != nil {
		return nil, err
	}
	p.simnet(seed)
	return p.out, nil
}

// proposal wraps block b as the leader's PrePrepare, the message that
// carries transactions on the wire.
func (p *probe) proposal(b int) *pbft.PrePrepare {
	blk := &types.Block{Instance: b % p.n, SN: uint64(b / p.n), Rank: uint64(b/p.n) + 1,
		Proposer: b % p.n, Txs: make([]types.Transaction, BlockSize)}
	for i, tx := range p.blocks[b] {
		blk.Txs[i] = *tx
	}
	return &pbft.PrePrepare{Instance: blk.Instance, Seq: blk.SN, Block: blk}
}

func (p *probe) wire() error {
	layer := p.tr.Begin("wire", p.root, -1)
	defer p.tr.End(layer)
	var enc, dec time.Duration
	var bytes int
	var scratch []byte
	frames := make([][]byte, len(p.blocks))
	for b := range p.blocks {
		msg := p.proposal(b)
		var err error
		id := p.tr.Begin("wire.Append", layer, b)
		scratch, err = wire.Append(scratch[:0], msg)
		enc += p.tr.End(id)
		if err != nil {
			return err
		}
		frames[b] = append([]byte(nil), scratch...)
		bytes += len(scratch)
	}
	for b, frame := range frames {
		id := p.tr.Begin("wire.Decode", layer, b)
		_, err := wire.Decode(frame)
		dec += p.tr.End(id)
		if err != nil {
			return err
		}
	}
	// Allocations are counted on a second, untimed pass: reading the
	// allocator's counters stops the world.
	decAllocs := mallocs(func() {
		for _, frame := range frames {
			_, _ = wire.Decode(frame) // decoded without error just above
		}
	})
	txs := float64(p.txs)
	p.add("wire.encode_ns_per_tx", float64(enc)/txs, "ns")
	p.add("wire.decode_ns_per_tx", float64(dec)/txs, "ns")
	p.add("wire.decode_allocs_per_tx", float64(decAllocs)/txs, "count")
	p.add("wire.bytes_per_tx", float64(bytes)/txs, "B")

	// Votes are the n-squared traffic: one Prepare out and back.
	const votes = 100_000
	vote := &pbft.Prepare{Instance: 1, View: 2, Seq: 3, Replica: 1}
	id := p.tr.Begin("wire.vote_roundtrip", layer, -1)
	for i := 0; i < votes; i++ {
		vote.Seq = uint64(i)
		var err error
		if scratch, err = wire.Append(scratch[:0], vote); err != nil {
			return err
		}
		if _, err = wire.Decode(scratch); err != nil {
			return err
		}
	}
	p.add("wire.vote_roundtrip_ns", float64(p.tr.End(id))/votes, "ns")
	return nil
}

// transport runs the public transport benchmark at the workload's cluster
// size: proposal-sized frames through the in-process and the loopback-TCP
// backends with counting handlers in place of the state machines.
func (p *probe) transport() error {
	id := p.tr.Begin("transport.RunNetBench", p.root, -1)
	art, err := orthrus.RunNetBench(orthrus.NetBenchOptions{Sizes: []int{p.n}})
	p.tr.End(id)
	if err != nil {
		return err
	}
	for _, c := range art.Cells {
		p.add("transport."+c.Backend+"_msgs_per_s", c.MsgsPerSec, "1/s")
		p.add("transport."+c.Backend+"_allocs_per_msg", c.AllocsPerMsg, "count")
		p.add("transport."+c.Backend+"_frame_p50_us", float64(c.P50LatencyNS)/1e3, "us")
	}
	return nil
}

// partition routes every block into the buckets, lets each leader pull its
// share, confirms the block and forgets it, as a replica does per block.
func (p *probe) partition() error {
	layer := p.tr.Begin("partition", p.root, -1)
	defer p.tr.End(layer)
	set := partition.NewSet(p.n)
	var took time.Duration
	var failed error
	allocs := mallocs(func() {
		for b, block := range p.blocks {
			id := p.tr.Begin("partition.route", layer, b)
			for _, tx := range block {
				if _, err := set.Add(tx); err != nil {
					failed = err
				}
			}
			for i := 0; i < set.M(); i++ {
				set.Bucket(i).Pull(BlockSize)
			}
			for _, tx := range block {
				set.MarkConfirmed(tx)
			}
			set.GC()
			took += p.tr.End(id)
		}
	})
	p.add("partition.route_ns_per_tx", float64(took)/float64(p.txs), "ns")
	p.add("partition.route_allocs_per_tx", float64(allocs)/float64(p.txs), "count")
	return failed
}

// order delivers one block per instance per rank to the dynamic global
// orderer, round after round, so every round releases the one before.
func (p *probe) order() {
	layer := p.tr.Begin("order", p.root, -1)
	defer p.tr.End(layer)
	const rounds = 1024
	d := order.NewDynamic(p.n)
	var took time.Duration
	for r := 0; r < rounds; r++ {
		batch := make([]*types.Block, p.n)
		for i := range batch {
			batch[i] = &types.Block{Instance: i, SN: uint64(r), Rank: uint64(r) + 1}
		}
		id := p.tr.Begin("order.Deliver", layer, r)
		for _, b := range batch {
			d.Deliver(b)
		}
		took += p.tr.End(id)
	}
	p.add("order.deliver_ns_per_block", float64(took)/float64(rounds*p.n), "ns")
}

// ledger executes every block in the order core/exec.go does: escrow the
// payer operations, then for a payment commit and credit at once, for a
// contract run the shared operations first.
func (p *probe) ledger() error {
	layer := p.tr.Begin("ledger", p.root, -1)
	defer p.tr.End(layer)
	st := ledger.NewStore()
	for i := 0; i < gen.Accounts; i++ {
		st.Credit(types.Key(gen.Account(i)), gen.InitialBalance)
	}
	for i := 0; i < gen.Records; i++ {
		st.SetShared(types.Key(gen.Record(i)), 0)
	}
	var took time.Duration
	var failed error
	allocs := mallocs(func() {
		for b, block := range p.blocks {
			id := p.tr.Begin("ledger.exec", layer, b)
			for _, tx := range block {
				txid := tx.ID()
				for _, op := range tx.Ops {
					if op.IsPayerOp() && !st.Escrow(op, txid) {
						failed = fmt.Errorf("layers: escrow of %s failed; the workload never overdrafts", txid)
					}
				}
				for _, op := range tx.Ops {
					if op.Type == types.Shared {
						if _, err := st.ApplyShared(op); err != nil {
							failed = err
						}
					}
				}
				st.CommitEscrow(txid)
				for _, op := range tx.Ops {
					if op.Type == types.Owned && op.Kind == types.OpIncrement {
						if err := st.ApplyIncrement(op); err != nil {
							failed = err
						}
					}
				}
			}
			took += p.tr.End(id)
		}
	})
	p.add("ledger.exec_ns_per_tx", float64(took)/float64(p.txs), "ns")
	p.add("ledger.exec_allocs_per_tx", float64(allocs)/float64(p.txs), "count")
	return failed
}

func noop(_, _ any) {}

// simnet schedules and runs a million no-op events, a thousand at a time
// over a second of virtual time each, which is the density of a run.
func (p *probe) simnet(seed int64) {
	layer := p.tr.Begin("simnet", p.root, -1)
	defer p.tr.End(layer)
	const batches, perBatch = 1000, 1000
	s := simnet.New(seed)
	var took []float64
	for b := 0; b < batches; b++ {
		base := simnet.Time(b) * simnet.Time(time.Second)
		id := p.tr.Begin("simnet.CallAt+Run", layer, b)
		for i := 0; i < perBatch; i++ {
			s.CallAt(base+simnet.Time(i)*simnet.Time(time.Millisecond), noop, nil, nil)
		}
		s.Run(base + simnet.Time(time.Second))
		took = append(took, float64(p.tr.End(id))/perBatch)
	}
	sort.Float64s(took)
	p.add("simnet.sched_ns_per_event", took[len(took)/2], "ns")
}
