// Package wire gives every message the replicas exchange — the pbft
// protocol messages, the core checkpoint and client submissions — a stable,
// self-describing binary encoding, so the same state machines that run
// in-process over the simulator can cross goroutine channels or TCP
// sockets (internal/transport). Beside the codec, ModeledSize is what the
// simulated network charges a message instead: the encoding approximated at
// a modeled transaction size, not measured.
//
// Format: one type-tag byte, then the message's fields in declaration
// order. Unsigned integers are uvarints, signed integers are zigzag
// varints, byte strings are length-prefixed, and 32-byte digests are raw.
// There are no optional fields or maps, so a message has exactly one
// encoding — encode(decode(b)) == b for every valid b, which the
// FuzzWireRoundTrip target pins.
//
// Ownership: decoding is borrow-safe. The returned message never aliases
// the input buffer — every variable-length field is copied into memory
// the message owns — so callers may reuse or overwrite the buffer the
// moment Decode returns (transports decode out of pooled frames and
// recycled socket-read buffers on exactly this contract; pinned by
// TestDecodeOwnsItsData). Whoever decodes a stream owns a Decoder, which
// carves what it decodes from chunks it keeps between messages, so the
// steady state allocates per chunk, not per transaction or vote. Encoding
// through Append on a warm scratch buffer performs zero allocations
// (pinned by TestAppendZeroAllocs).
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
// oversized or otherwise malformed input, including trailing garbage. It
// is Decoder.Decode on a fresh Decoder: the one-shot form of the same code.
func Decode(data []byte) (any, error) {
	var d Decoder
	return d.Decode(data)
}

// Decoder decodes a stream of messages for one owner goroutine (a
// transport.Node loop, a TCP connection's read loop). What a message is
// made of in bulk — ops, key/sig/payload bytes, client submissions, votes
// and checkpoints — is carved from typed chunks the Decoder keeps between
// calls instead of one heap object each. Every carve is exclusively owned
// and capacity-clipped, so appending to a decoded field never reaches a
// sibling. A chunk is plain garbage-collected memory: it lives as long as
// anything carved from it (a chunk is at most maxChunk bytes, so one
// long-lived transaction pins a bounded neighbourhood) and is never
// recycled by hand. The zero value is ready to use.
//
// While it decodes, the Decoder is also the cursor over the message, with
// sticky error handling: the first malformed read poisons it and every
// later read returns zero values, so field sequences are read without
// per-field checks.
type Decoder struct {
	b   []byte // the rest of the message being decoded
	err error  // its first malformed read

	blobs       chunk[byte] // key, sig and payload bytes
	ops         chunk[types.Op]
	submits     chunk[submission]
	prepares    chunk[pbft.Prepare]
	commits     chunk[pbft.Commit]
	checkpoints chunk[core.CheckpointMsg]
}

// submission is a decoded client submission: the message and the
// transaction it points at, side by side.
type submission struct {
	msg core.SubmitMsg
	tx  types.Transaction
}

// maxChunk bounds a chunk in bytes; a single carve that needs more gets an
// allocation of exactly its size.
const maxChunk = 32 << 10

// chunk hands out exclusive sub-slices of one allocation at a time. The
// first chunk is as long as the first carve; each later one doubles, up to
// maxChunk bytes — a one-shot Decode pays for what its message needs, a
// long-lived Decoder settles at one allocation per maxChunk bytes decoded.
type chunk[T any] struct {
	free []T
	next int // length of the next chunk
}

// expect notes that at least n more elements are about to be carved: the
// next chunk will not be shorter, up to maxChunk bytes.
func (c *chunk[T]) expect(n int) {
	var elem T
	c.next = min(max(c.next, n), maxChunk/int(unsafe.Sizeof(elem)))
}

// carve returns n zeroed elements nothing else references.
func (c *chunk[T]) carve(n int) []T {
	if n > len(c.free) {
		size := max(n, c.next)
		c.expect(2 * size)
		if size-n <= len(c.free) {
			return make([]T, n) // the current chunk keeps more room than a new one would have left
		}
		c.free = make([]T, size)
	}
	out := c.free[:n:n]
	c.free = c.free[n:]
	return out
}

// Decode parses one encoded message like the package-level Decode, carving
// from the Decoder's chunks.
func (d *Decoder) Decode(data []byte) (any, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("wire: empty message")
	}
	// A message's byte fields total less than its encoding, so a byte chunk
	// no smaller than that serves a whole one-shot message.
	d.blobs.expect(len(data))
	d.b, d.err = data[1:], nil
	var msg any
	switch data[0] {
	case tagPrePrepare:
		msg = d.prePrepare()
	case tagPrepare:
		m := &d.prepares.carve(1)[0]
		m.Instance = int(d.uint())
		m.View = d.uint()
		m.Seq = d.uint()
		d.digest(m.Digest[:])
		m.Replica = int(d.uint())
		msg = m
	case tagCommit:
		m := &d.commits.carve(1)[0]
		m.Instance = int(d.uint())
		m.View = d.uint()
		m.Seq = d.uint()
		d.digest(m.Digest[:])
		m.Replica = int(d.uint())
		msg = m
	case tagViewChange:
		m := &pbft.ViewChange{}
		m.Instance = int(d.uint())
		m.NewView = d.uint()
		m.Replica = int(d.uint())
		m.Delivered = d.uint()
		if n := d.count(3); n > 0 {
			m.Prepared = make([]pbft.PreparedEntry, n)
			for i := range m.Prepared {
				m.Prepared[i].Seq = d.uint()
				m.Prepared[i].View = d.uint()
				m.Prepared[i].Block = d.block()
			}
		}
		msg = m
	case tagNewView:
		m := &pbft.NewView{}
		m.Instance = int(d.uint())
		m.View = d.uint()
		if n := d.count(4); n > 0 {
			m.Reproposals = make([]*pbft.PrePrepare, n)
			for i := range m.Reproposals {
				m.Reproposals[i] = d.prePrepare()
			}
		}
		msg = m
	case tagCheckpoint:
		m := &d.checkpoints.carve(1)[0]
		m.Epoch = d.uint()
		d.digest(m.Digest[:])
		m.Replica = int(d.uint())
		msg = m
	case tagSubmit:
		s := &d.submits.carve(1)[0]
		if d.byte() != 0 {
			s.msg.Tx = &s.tx
			d.txValue(s.msg.Tx)
		}
		msg = &s.msg
	case tagStateTransferReq:
		m := &core.StateTransferReq{}
		m.Replica = int(d.uint())
		if n := d.count(1); n > 0 {
			m.State = make(types.StateVector, n)
			for i := range m.State {
				m.State[i] = d.uint()
			}
		}
		msg = m
	case tagStateTransferResp:
		m := &core.StateTransferResp{}
		m.Replica = int(d.uint())
		m.Cert.Stable = d.uint()
		d.digest(m.Cert.Digest[:])
		if n := d.count(32); n > 0 {
			m.Cert.Bound = make([][32]byte, n)
			for i := range m.Cert.Bound {
				d.digest(m.Cert.Bound[i][:])
			}
		}
		if n := d.count(2); n > 0 {
			m.Runs = make([]core.BlockRun, n)
			for i := range m.Runs {
				m.Runs[i].Instance = int(d.uint())
				if bn := d.count(1); bn > 0 {
					m.Runs[i].Blocks = make([]*types.Block, bn)
					for j := range m.Runs[i].Blocks {
						m.Runs[i].Blocks[j] = d.block()
					}
				}
			}
		}
		msg = m
	default:
		return nil, fmt.Errorf("wire: unknown message tag %d", data[0])
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after message", len(d.b))
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

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: "+format, args...)
	}
}

func (d *Decoder) uint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("truncated uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *Decoder) int() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("truncated varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// count reads a collection length and bounds it by the bytes remaining over
// minLen, the fewest bytes one element encodes to (a transaction's six
// fields take 6, an op's five take 5, a prepared entry's and a
// re-proposal's fixed heads 3 and 4), so a malformed header cannot demand
// an allocation out of proportion to its frame.
func (d *Decoder) count(minLen int) int {
	n := d.uint()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.b)/minLen) {
		d.fail("collection of %d elements exceeds %d remaining bytes", n, len(d.b))
		return 0
	}
	return int(n)
}

func (d *Decoder) bytes() []byte {
	n := d.count(1)
	if d.err != nil || n == 0 {
		return nil
	}
	out := d.blobs.carve(n)
	copy(out, d.b)
	d.b = d.b[n:]
	return out
}

// str reads a string field without the double copy of
// string(d.bytes()). The carved region is exclusively owned by the
// returned string: the chunk has moved past it, no other field can alias
// it, and []byte fields carved from the same chunk are capacity-clipped
// to their own regions — so nothing can ever mutate the string's backing
// bytes, which is what makes the zero-copy conversion sound.
func (d *Decoder) str() string {
	n := d.count(1)
	if d.err != nil || n == 0 {
		return ""
	}
	out := d.blobs.carve(n)
	copy(out, d.b)
	d.b = d.b[n:]
	return unsafe.String(&out[0], n)
}

func (d *Decoder) digest(dst []byte) {
	if d.err != nil {
		return
	}
	if len(d.b) < len(dst) {
		d.fail("truncated %d-byte digest", len(dst))
		return
	}
	copy(dst, d.b)
	d.b = d.b[len(dst):]
}

func (d *Decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) == 0 {
		d.fail("truncated byte")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *Decoder) prePrepare() *pbft.PrePrepare {
	m := &pbft.PrePrepare{}
	m.Instance = int(d.uint())
	m.View = d.uint()
	m.Seq = d.uint()
	m.Block = d.block()
	return m
}

func (d *Decoder) block() *types.Block {
	if d.byte() == 0 || d.err != nil {
		return nil
	}
	b := &types.Block{}
	b.Instance = int(d.uint())
	b.SN = d.uint()
	b.Rank = d.uint()
	if n := d.count(1); n > 0 {
		b.State = make(types.StateVector, n)
		for i := range b.State {
			b.State[i] = d.uint()
		}
	}
	if n := d.count(6); n > 0 {
		b.Txs = make([]types.Transaction, n)
		d.ops.expect(n) // at least: a valid transaction has an op
		for i := range b.Txs {
			d.txValue(&b.Txs[i])
		}
	}
	if n := d.count(2); n > 0 {
		b.Refs = make([]types.BlockRef, n)
		for i := range b.Refs {
			b.Refs[i].Instance = int(d.uint())
			b.Refs[i].SN = d.uint()
		}
	}
	b.Proposer = int(d.uint())
	b.Sig = d.bytes()
	b.ProposeNS = d.int()
	return b
}

func (d *Decoder) txValue(tx *types.Transaction) {
	if n := d.count(5); n > 0 {
		tx.Ops = d.ops.carve(n)
		for i := range tx.Ops {
			op := &tx.Ops[i]
			op.Key = types.Key(d.str())
			op.Type = types.ObjectType(d.byte())
			op.Kind = types.OpKind(d.byte())
			op.Amount = types.Amount(d.int())
			op.Con = types.Amount(d.int())
		}
	}
	tx.Client = types.Key(d.str())
	tx.Nonce = d.uint()
	tx.Sig = d.bytes()
	tx.Payload = d.bytes()
	tx.SubmitNS = d.int()
}

// VoteSize is the modeled size in bytes of a prepare or commit vote, and of
// the fixed part of a view change or a new view.
const VoteSize = 96

// BlockSize is the modeled size in bytes of a pre-prepare carrying txs
// transactions of txSize bytes each.
func BlockSize(txs, txSize int) int { return 160 + txs*txSize }

// ModeledSize is what the simulated network charges msg in bytes when a
// transaction counts txSize (500 in the paper's Sec. VII): the encoding
// above approximated — a proposal scales with its batch, the rest is nearly
// constant — not measured. Anything not listed is one vote.
func ModeledSize(msg any, txSize int) int {
	size := VoteSize
	switch m := msg.(type) {
	case *pbft.PrePrepare:
		return BlockSize(len(m.Block.Txs), txSize)
	case *pbft.ViewChange:
		for _, p := range m.Prepared {
			size += BlockSize(len(p.Block.Txs), txSize)
		}
	case *pbft.NewView:
		for _, p := range m.Reproposals {
			size += BlockSize(len(p.Block.Txs), txSize)
		}
	case *core.CheckpointMsg:
		return 128
	case *core.StateTransferReq:
		return 32 + 8*len(m.State)
	case *core.StateTransferResp:
		size = 64
		if m.Cert.Stable > 0 {
			size += 32 * (len(m.Cert.Bound) + 1)
		}
		for _, run := range m.Runs {
			for _, b := range run.Blocks {
				size += 96 + len(b.Txs)*txSize // an archived block: a header, no proposal envelope
			}
		}
	}
	return size
}
