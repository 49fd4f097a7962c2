// Package wire gives every message the replicas exchange — the pbft
// protocol messages, the core checkpoint and client submissions — a stable,
// self-describing binary encoding, so the same state machines that run
// in-process over the simulator can cross goroutine channels or TCP
// sockets (internal/transport).
//
// Format: one type-tag byte, then the message's fields in declaration
// order. Unsigned integers are uvarints, signed integers are zigzag
// varints, byte strings are length-prefixed, and 32-byte digests are raw.
// There are no optional fields or maps, so a message has exactly one
// encoding — encode(decode(b)) == b for every valid b, which the
// FuzzWireRoundTrip target pins.
//
// The codec deliberately omits fields that carry no protocol meaning
// across a wire: Transaction.Idx is a per-run dense index stamped by the
// local submission layer, so it decodes as zero and every receiver
// identifies the transaction by its full ID (partition.Table).
//
// Ownership: Decode is borrow-safe. The returned message never aliases
// the input buffer — every variable-length field is copied into memory
// the message owns — so callers may reuse or overwrite the buffer the
// moment Decode returns (transports decode out of pooled frames and
// recycled socket-read buffers on exactly this contract; pinned by
// TestDecodeOwnsItsData). Encoding through Append on a warm scratch
// buffer performs zero allocations (pinned by TestAppendZeroAllocs).
package wire

import (
	"encoding/binary"
	"fmt"
	"unsafe"

	"repro/internal/core"
	"repro/internal/pbft"
	"repro/internal/types"
)

// Message type tags. The tag values are part of the wire format: never
// renumber an existing tag, only append.
const (
	tagPrePrepare byte = 1 + iota
	tagPrepare
	tagCommit
	tagViewChange
	tagNewView
	tagCheckpoint
	tagSubmit
	tagStateTransferReq
	tagStateTransferResp
)

// Encode serializes a replica message into a fresh buffer. It accepts
// exactly the types a replica's network handler dispatches on: the pbft
// message set, *core.CheckpointMsg and *core.SubmitMsg. Unknown types
// error — transports must fail loudly rather than drop traffic silently.
func Encode(msg any) ([]byte, error) {
	return Append(nil, msg)
}

// Append serializes msg onto dst and returns the extended slice (the
// append idiom: transports reuse one scratch buffer per send loop).
func Append(dst []byte, msg any) ([]byte, error) {
	switch m := msg.(type) {
	case *pbft.PrePrepare:
		dst = append(dst, tagPrePrepare)
		return appendPrePrepare(dst, m), nil
	case *pbft.Prepare:
		dst = append(dst, tagPrepare)
		dst = appendUint(dst, uint64(m.Instance))
		dst = appendUint(dst, m.View)
		dst = appendUint(dst, m.Seq)
		dst = append(dst, m.Digest[:]...)
		return appendUint(dst, uint64(m.Replica)), nil
	case *pbft.Commit:
		dst = append(dst, tagCommit)
		dst = appendUint(dst, uint64(m.Instance))
		dst = appendUint(dst, m.View)
		dst = appendUint(dst, m.Seq)
		dst = append(dst, m.Digest[:]...)
		return appendUint(dst, uint64(m.Replica)), nil
	case *pbft.ViewChange:
		dst = append(dst, tagViewChange)
		dst = appendUint(dst, uint64(m.Instance))
		dst = appendUint(dst, m.NewView)
		dst = appendUint(dst, uint64(m.Replica))
		dst = appendUint(dst, m.Delivered)
		dst = appendUint(dst, uint64(len(m.Prepared)))
		for i := range m.Prepared {
			p := &m.Prepared[i]
			dst = appendUint(dst, p.Seq)
			dst = appendUint(dst, p.View)
			dst = appendBlock(dst, p.Block)
		}
		return dst, nil
	case *pbft.NewView:
		dst = append(dst, tagNewView)
		dst = appendUint(dst, uint64(m.Instance))
		dst = appendUint(dst, m.View)
		dst = appendUint(dst, uint64(len(m.Reproposals)))
		for _, p := range m.Reproposals {
			dst = appendPrePrepare(dst, p)
		}
		return dst, nil
	case *core.CheckpointMsg:
		dst = append(dst, tagCheckpoint)
		dst = appendUint(dst, m.Epoch)
		dst = append(dst, m.Digest[:]...)
		return appendUint(dst, uint64(m.Replica)), nil
	case *core.SubmitMsg:
		dst = append(dst, tagSubmit)
		return appendTx(dst, m.Tx), nil
	case *core.StateTransferReq:
		dst = append(dst, tagStateTransferReq)
		dst = appendUint(dst, uint64(m.Replica))
		dst = appendUint(dst, uint64(len(m.State)))
		for _, v := range m.State {
			dst = appendUint(dst, v)
		}
		return dst, nil
	case *core.StateTransferResp:
		dst = append(dst, tagStateTransferResp)
		dst = appendUint(dst, uint64(m.Replica))
		dst = appendUint(dst, m.Cert.Stable)
		dst = append(dst, m.Cert.Digest[:]...)
		dst = appendUint(dst, uint64(len(m.Cert.Bound)))
		for i := range m.Cert.Bound {
			dst = append(dst, m.Cert.Bound[i][:]...)
		}
		dst = appendUint(dst, uint64(len(m.Runs)))
		for i := range m.Runs {
			run := &m.Runs[i]
			dst = appendUint(dst, uint64(run.Instance))
			dst = appendUint(dst, uint64(len(run.Blocks)))
			for _, b := range run.Blocks {
				dst = appendBlock(dst, b)
			}
		}
		return dst, nil
	default:
		return nil, fmt.Errorf("wire: cannot encode %T", msg)
	}
}

// Decode parses one encoded message. It is the inverse of Encode for every
// valid buffer and returns an error — never panics — on truncated,
// oversized or otherwise malformed input, including trailing garbage.
func Decode(data []byte) (any, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("wire: empty message")
	}
	r := reader{b: data[1:]}
	var msg any
	switch data[0] {
	case tagPrePrepare:
		msg = r.prePrepare()
	case tagPrepare:
		m := &pbft.Prepare{}
		m.Instance = int(r.uint())
		m.View = r.uint()
		m.Seq = r.uint()
		r.digest(m.Digest[:])
		m.Replica = int(r.uint())
		msg = m
	case tagCommit:
		m := &pbft.Commit{}
		m.Instance = int(r.uint())
		m.View = r.uint()
		m.Seq = r.uint()
		r.digest(m.Digest[:])
		m.Replica = int(r.uint())
		msg = m
	case tagViewChange:
		m := &pbft.ViewChange{}
		m.Instance = int(r.uint())
		m.NewView = r.uint()
		m.Replica = int(r.uint())
		m.Delivered = r.uint()
		if n := r.count(); n > 0 {
			m.Prepared = make([]pbft.PreparedEntry, n)
			for i := range m.Prepared {
				m.Prepared[i].Seq = r.uint()
				m.Prepared[i].View = r.uint()
				m.Prepared[i].Block = r.block()
			}
		}
		msg = m
	case tagNewView:
		m := &pbft.NewView{}
		m.Instance = int(r.uint())
		m.View = r.uint()
		if n := r.count(); n > 0 {
			m.Reproposals = make([]*pbft.PrePrepare, n)
			for i := range m.Reproposals {
				m.Reproposals[i] = r.prePrepare()
			}
		}
		msg = m
	case tagCheckpoint:
		m := &core.CheckpointMsg{}
		m.Epoch = r.uint()
		r.digest(m.Digest[:])
		m.Replica = int(r.uint())
		msg = m
	case tagSubmit:
		msg = &core.SubmitMsg{Tx: r.tx()}
	case tagStateTransferReq:
		m := &core.StateTransferReq{}
		m.Replica = int(r.uint())
		if n := r.count(); n > 0 {
			m.State = make(types.StateVector, n)
			for i := range m.State {
				m.State[i] = r.uint()
			}
		}
		msg = m
	case tagStateTransferResp:
		m := &core.StateTransferResp{}
		m.Replica = int(r.uint())
		m.Cert.Stable = r.uint()
		r.digest(m.Cert.Digest[:])
		if n := r.count(); n > 0 {
			m.Cert.Bound = make([][32]byte, n)
			for i := range m.Cert.Bound {
				r.digest(m.Cert.Bound[i][:])
			}
		}
		if n := r.count(); n > 0 {
			m.Runs = make([]core.BlockRun, n)
			for i := range m.Runs {
				m.Runs[i].Instance = int(r.uint())
				if bn := r.count(); bn > 0 {
					m.Runs[i].Blocks = make([]*types.Block, bn)
					for j := range m.Runs[i].Blocks {
						m.Runs[i].Blocks[j] = r.block()
					}
				}
			}
		}
		msg = m
	default:
		return nil, fmt.Errorf("wire: unknown message tag %d", data[0])
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after message", len(r.b))
	}
	return msg, nil
}

// --- encoding helpers ---

func appendUint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }
func appendInt(dst []byte, v int64) []byte   { return binary.AppendVarint(dst, v) }

func appendBytes(dst, b []byte) []byte {
	dst = appendUint(dst, uint64(len(b)))
	return append(dst, b...)
}

// appendString length-prefixes a string field without converting it to a
// byte slice first — appending string contents directly keeps Append on
// a warm buffer allocation-free.
func appendString(dst []byte, s string) []byte {
	dst = appendUint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendPrePrepare(dst []byte, m *pbft.PrePrepare) []byte {
	dst = appendUint(dst, uint64(m.Instance))
	dst = appendUint(dst, m.View)
	dst = appendUint(dst, m.Seq)
	return appendBlock(dst, m.Block)
}

func appendBlock(dst []byte, b *types.Block) []byte {
	if b == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	dst = appendUint(dst, uint64(b.Instance))
	dst = appendUint(dst, b.SN)
	dst = appendUint(dst, b.Rank)
	dst = appendUint(dst, uint64(len(b.State)))
	for _, v := range b.State {
		dst = appendUint(dst, v)
	}
	dst = appendUint(dst, uint64(len(b.Txs)))
	for i := range b.Txs {
		dst = appendTxValue(dst, &b.Txs[i])
	}
	dst = appendUint(dst, uint64(len(b.Refs)))
	for _, ref := range b.Refs {
		dst = appendUint(dst, uint64(ref.Instance))
		dst = appendUint(dst, ref.SN)
	}
	dst = appendUint(dst, uint64(b.Proposer))
	dst = appendBytes(dst, b.Sig)
	return appendInt(dst, b.ProposeNS)
}

func appendTx(dst []byte, tx *types.Transaction) []byte {
	if tx == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	return appendTxValue(dst, tx)
}

func appendTxValue(dst []byte, tx *types.Transaction) []byte {
	dst = appendUint(dst, uint64(len(tx.Ops)))
	for _, op := range tx.Ops {
		dst = appendString(dst, string(op.Key))
		dst = append(dst, byte(op.Type), byte(op.Kind))
		dst = appendInt(dst, int64(op.Amount))
		dst = appendInt(dst, int64(op.Con))
	}
	dst = appendString(dst, string(tx.Client))
	dst = appendUint(dst, tx.Nonce)
	dst = appendBytes(dst, tx.Sig)
	dst = appendBytes(dst, tx.Payload)
	return appendInt(dst, tx.SubmitNS)
}

// --- decoding helpers ---

// reader is a cursor over an encoded message with sticky error handling:
// the first malformed read poisons it and every later read returns zero
// values, so decoders read field sequences without per-field checks.
//
// Variable-length fields are carved from one shared arena allocation
// instead of one heap object each: the sum of every remaining field's
// content is bounded by the bytes left in the input, so a single buffer
// sized at the first carve serves the whole message. Each carve is
// capacity-clipped (three-index slice), so appending to one decoded
// field can never spill into a sibling's region.
type reader struct {
	b     []byte
	arena []byte
	err   error
}

// carve reserves n exclusively-owned bytes from the arena.
func (r *reader) carve(n int) []byte {
	if cap(r.arena)-len(r.arena) < n {
		// Every later carve copies bytes not yet consumed from r.b, so
		// len(r.b) bounds all remaining content: one allocation suffices.
		r.arena = make([]byte, 0, max(n, len(r.b)))
	}
	out := r.arena[len(r.arena) : len(r.arena)+n : len(r.arena)+n]
	r.arena = r.arena[:len(r.arena)+n]
	return out
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: "+format, args...)
	}
}

func (r *reader) uint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) int() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("truncated varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// count reads a collection length and bounds it by the bytes remaining
// (every element encodes to at least one byte), so a malformed header
// cannot demand a huge allocation.
func (r *reader) count() int {
	n := r.uint()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.b)) {
		r.fail("collection of %d elements exceeds %d remaining bytes", n, len(r.b))
		return 0
	}
	return int(n)
}

func (r *reader) bytes() []byte {
	n := r.count()
	if r.err != nil || n == 0 {
		return nil
	}
	out := r.carve(n)
	copy(out, r.b)
	r.b = r.b[n:]
	return out
}

// str reads a string field without the double copy of
// string(r.bytes()). The carved region is exclusively owned by the
// returned string: the arena cursor has moved past it, no other field
// can alias it, and []byte fields carved from the same arena are
// capacity-clipped to their own regions — so nothing can ever mutate
// the string's backing bytes, which is what makes the zero-copy
// conversion sound.
func (r *reader) str() string {
	n := r.count()
	if r.err != nil || n == 0 {
		return ""
	}
	out := r.carve(n)
	copy(out, r.b)
	r.b = r.b[n:]
	return unsafe.String(&out[0], n)
}

func (r *reader) digest(dst []byte) {
	if r.err != nil {
		return
	}
	if len(r.b) < len(dst) {
		r.fail("truncated %d-byte digest", len(dst))
		return
	}
	copy(dst, r.b)
	r.b = r.b[len(dst):]
}

func (r *reader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) == 0 {
		r.fail("truncated byte")
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *reader) prePrepare() *pbft.PrePrepare {
	m := &pbft.PrePrepare{}
	m.Instance = int(r.uint())
	m.View = r.uint()
	m.Seq = r.uint()
	m.Block = r.block()
	return m
}

func (r *reader) block() *types.Block {
	if r.byte() == 0 || r.err != nil {
		return nil
	}
	b := &types.Block{}
	b.Instance = int(r.uint())
	b.SN = r.uint()
	b.Rank = r.uint()
	if n := r.count(); n > 0 {
		b.State = make(types.StateVector, n)
		for i := range b.State {
			b.State[i] = r.uint()
		}
	}
	if n := r.count(); n > 0 {
		b.Txs = make([]types.Transaction, n)
		for i := range b.Txs {
			r.txValue(&b.Txs[i])
		}
	}
	if n := r.count(); n > 0 {
		b.Refs = make([]types.BlockRef, n)
		for i := range b.Refs {
			b.Refs[i].Instance = int(r.uint())
			b.Refs[i].SN = r.uint()
		}
	}
	b.Proposer = int(r.uint())
	b.Sig = r.bytes()
	b.ProposeNS = r.int()
	return b
}

func (r *reader) tx() *types.Transaction {
	if r.byte() == 0 || r.err != nil {
		return nil
	}
	tx := &types.Transaction{}
	r.txValue(tx)
	return tx
}

func (r *reader) txValue(tx *types.Transaction) {
	if n := r.count(); n > 0 {
		tx.Ops = make([]types.Op, n)
		for i := range tx.Ops {
			op := &tx.Ops[i]
			op.Key = types.Key(r.str())
			op.Type = types.ObjectType(r.byte())
			op.Kind = types.OpKind(r.byte())
			op.Amount = types.Amount(r.int())
			op.Con = types.Amount(r.int())
		}
	}
	tx.Client = types.Key(r.str())
	tx.Nonce = r.uint()
	tx.Sig = r.bytes()
	tx.Payload = r.bytes()
	tx.SubmitNS = r.int()
}
