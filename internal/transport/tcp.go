package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/types"
	"repro/internal/wire"
)

// Frame format: a 4-byte big-endian payload length, then the
// wire-encoded message. A connection opens with a hello frame whose
// payload is the 4-byte big-endian sender replica id — self-declared, so
// readLoop refuses only what no peer socket may claim: an id outside the
// peer table, and the endpoint's own.
const (
	frameHeaderLen = 4
	// maxFrameLen bounds a single message (64 MiB): far above any real
	// batch, low enough that a corrupt length prefix cannot OOM the node.
	maxFrameLen = 64 << 20
	// maxWriteBatch bounds the bytes one vectored write coalesces. Small
	// enough that a reconnect's whole-batch resend stays cheap, large
	// enough to drain a deep queue in a handful of syscalls.
	maxWriteBatch = 256 << 10
	// writeTimeout bounds each dial and frame write; a peer that stalls
	// longer gets its connection dropped and redialed.
	writeTimeout = 5 * time.Second
)

// TCPOptions tunes a TCP transport; the zero value is usable.
type TCPOptions struct {
	// Listener overrides listening on the peer table's own address —
	// Loopback and tests reserve ephemeral ports this way. Closed by Close.
	Listener net.Listener
	// DialBackoffMax caps the exponential redial backoff (default 1s).
	DialBackoffMax time.Duration
	// Logf, when set, receives one line per connectivity event (connects,
	// disconnects, redials) — the daemon wires its structured logger here.
	Logf func(format string, args ...any)
	// QueueCap bounds each peer's outbound queue in frames (default 4096).
	// At the cap the oldest frame is dropped and counted (Dropped): a
	// partitioned or wedged peer must not accumulate frames until OOM over
	// a long run, and PBFT tolerates lost messages — retransmission and
	// view changes supersede dropped votes, and a peer that falls behind
	// catches up through state transfer, not replayed backlog.
	QueueCap int
}

// TCP carries replica messages over real sockets: one outbound connection
// per peer (dialed lazily, redialed with exponential backoff), length-
// prefixed frames, write timeouts, and an accept loop feeding decoded
// messages to the local Node's event loop.
//
// The hot path avoids per-message allocation: sends encode once into a
// pooled frame (the frame is the encode buffer), a broadcast shares that
// one immutable frame across every peer queue by refcount, the writer
// drains whole queue batches into a single vectored write, and the read
// side reuses one buffer and one wire.Decoder per connection (decoding
// never aliasing its input makes the immediate reuse safe).
//
// Each process hosts one replica, so Register accepts only the local id
// and the traffic counters cover locally delivered messages (the
// per-destination view, matching what simnet counts per node).
type TCP struct {
	id    int
	peers []string
	node  *Node
	opts  TCPOptions

	ln net.Listener

	mu    sync.Mutex
	out   map[int]*peerQueue
	conns map[net.Conn]struct{} // live inbound connections, closed by Close
	close sync.Once

	quit chan struct{}
	wg   sync.WaitGroup

	msgs       atomic.Uint64
	bytes      atomic.Uint64
	dropped    atomic.Uint64
	encodeErrs atomic.Uint64
	decodeErrs atomic.Uint64
}

// peerQueue is the bounded outbound buffer for one peer, drained by a
// dedicated writer goroutine. The sender is the replica event loop:
// blocking it on a slow peer would stall consensus with the fast ones, so
// at the cap the OLDEST frame is dropped (newest protocol state wins) and
// counted in the shared dropped counter. Lossy-but-bounded is the right
// trade for long runs: the channels are fair-lossy, PBFT's timeouts and
// view changes recover from lost votes, and a peer partitioned for hours
// must not grow this queue until OOM.
//
// Queued frames are refcounted (broadcasts share one frame across every
// peer queue); the queue owns one reference per entry and releases it on
// drop-at-cap, on shut, or — via the writer — after the frame is written.
type peerQueue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	frames  []*frame
	head    int // consumed prefix of frames (amortized O(1) pop/drop)
	cap     int
	dropped *atomic.Uint64
	closed  bool
}

func newPeerQueue(cap int, dropped *atomic.Uint64) *peerQueue {
	q := &peerQueue{cap: cap, dropped: dropped}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *peerQueue) push(f *frame) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		f.release()
		return
	}
	if len(q.frames)-q.head >= q.cap {
		old := q.frames[q.head]
		q.frames[q.head] = nil
		q.head++
		q.dropped.Add(1)
		old.release()
	}
	if q.head > 0 && q.head == len(q.frames) {
		q.frames, q.head = q.frames[:0], 0
	}
	q.frames = append(q.frames, f)
	q.mu.Unlock()
	q.cond.Signal()
}

// popBatch blocks until at least one frame is available (or the queue
// closes), then moves queued frames into dst until the queue empties or
// the batch reaches maxBytes — the writer turns each batch into one
// vectored write. The first frame always fits regardless of size.
// Ownership of the returned frames' queue references moves to the caller.
func (q *peerQueue) popBatch(dst []*frame, maxBytes int) ([]*frame, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.frames)-q.head == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.frames)-q.head == 0 {
		return dst, false
	}
	total := 0
	for q.head < len(q.frames) {
		f := q.frames[q.head]
		if len(dst) > 0 && total+len(f.buf) > maxBytes {
			break
		}
		dst = append(dst, f)
		total += len(f.buf)
		q.frames[q.head] = nil
		q.head++
	}
	if q.head == len(q.frames) {
		q.frames, q.head = q.frames[:0], 0
	}
	return dst, true
}

// depth returns the number of queued frames (tests).
func (q *peerQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.frames) - q.head
}

func (q *peerQueue) shut() {
	q.mu.Lock()
	q.closed = true
	for ; q.head < len(q.frames); q.head++ {
		q.frames[q.head].release()
		q.frames[q.head] = nil
	}
	q.frames, q.head = q.frames[:0], 0
	q.mu.Unlock()
	q.cond.Broadcast()
}

// NewTCP builds the transport for replica id of the cluster described by
// peers (index = replica id, value = host:port). It starts listening on
// peers[id] (or opts.Listener) immediately; outbound connections are
// dialed on first send and redialed with backoff on failure, so peer
// processes may start in any order.
func NewTCP(id int, peers []string, node *Node, opts TCPOptions) (*TCP, error) {
	if id < 0 || id >= len(peers) {
		return nil, fmt.Errorf("transport: id %d outside peer table of %d", id, len(peers))
	}
	if opts.DialBackoffMax <= 0 {
		opts.DialBackoffMax = time.Second
	}
	if opts.QueueCap <= 0 {
		opts.QueueCap = 4096
	}
	t := &TCP{
		id:    id,
		peers: peers,
		node:  node,
		opts:  opts,
		out:   make(map[int]*peerQueue),
		conns: make(map[net.Conn]struct{}),
		quit:  make(chan struct{}),
	}
	t.ln = opts.Listener
	if t.ln == nil {
		ln, err := net.Listen("tcp", peers[id])
		if err != nil {
			return nil, fmt.Errorf("transport: listen %s: %w", peers[id], err)
		}
		t.ln = ln
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the transport's listening address.
func (t *TCP) Addr() net.Addr { return t.ln.Addr() }

func (t *TCP) logf(format string, args ...any) {
	if t.opts.Logf != nil {
		t.opts.Logf(format, args...)
	}
}

// Register implements types.Network for the one local replica.
func (t *TCP) Register(id int, h types.Handler) {
	if id != t.id {
		panic(fmt.Sprintf("transport: Register(%d) on the replica-%d TCP endpoint", id, t.id))
	}
	t.node.setHandler(h)
}

// Send implements types.Network: one encode into a pooled frame, queued to
// the peer's writer. A send to self is encoded only to be counted at its
// wire size: the local loop is handed msg itself, so the caller must be
// done with it (a replica's messages are immutable after send; a client
// goroutine sharing the endpoint sends its local copy last).
// An unencodable message is counted in EncodeErrors and dropped rather
// than sent partially — the replica message set is closed, so a nonzero
// counter is a bug signal, not an operational one.
func (t *TCP) Send(from, to int, msg any) {
	if to < 0 || to >= len(t.peers) {
		return
	}
	f, err := encodeFrame(msg)
	if err != nil {
		t.encodeErrs.Add(1)
		t.logf("wire encode failed, message to peer %d dropped: %v", to, err)
		return
	}
	if to == t.id {
		t.deliverLocal(from, msg, len(f.payload()))
		f.recycle()
		return
	}
	f.retain(1)
	t.queueFor(to).push(f)
}

// Broadcast implements types.Network: one encode, one immutable frame shared
// by refcount across every peer queue, plus msg itself to the local loop
// (protocols self-deliver). The frame returns to the pool after the last
// writer finishes with it.
func (t *TCP) Broadcast(from int, msg any) {
	f, err := encodeFrame(msg)
	if err != nil {
		t.encodeErrs.Add(1)
		t.logf("wire encode failed, broadcast dropped: %v", err)
		return
	}
	// Read the frame's size before publishing it to the writers: once
	// pushed, the frame may be released (and its buffer reused) the moment
	// the last writer finishes.
	t.deliverLocal(from, msg, len(f.payload()))
	remote := len(t.peers) - 1
	if remote <= 0 {
		f.recycle()
		return
	}
	f.retain(remote)
	for to := range t.peers {
		if to != t.id {
			t.queueFor(to).push(f)
		}
	}
}

// deliverLocal hands msg to the local node loop without a codec round
// trip, counting it as delivered traffic at its encoded size.
func (t *TCP) deliverLocal(from int, msg any, size int) {
	t.msgs.Add(1)
	t.bytes.Add(uint64(size))
	t.node.enqueue(from, msg)
}

// queueFor returns the outbound queue for a peer, spawning its writer on
// first use.
func (t *TCP) queueFor(to int) *peerQueue {
	t.mu.Lock()
	defer t.mu.Unlock()
	q, ok := t.out[to]
	if !ok {
		q = newPeerQueue(t.opts.QueueCap, &t.dropped)
		t.out[to] = q
		t.wg.Add(1)
		go t.writeLoop(to, q)
	}
	return q
}

// writeLoop drains one peer's queue: dial (with exponential backoff and a
// hello frame identifying this replica), then flush whole queue batches
// as single vectored writes under the write timeout. Any error drops the
// connection, redials, and resends the whole failed batch on the fresh
// connection — the already-written prefix arrives twice, which is safe
// because PBFT deduplicates votes by (view, seq, sender).
func (t *TCP) writeLoop(to int, q *peerQueue) {
	defer t.wg.Done()
	var conn net.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	backoff := 25 * time.Millisecond
	var batch []*frame
	var bufs net.Buffers
	for {
		var ok bool
		batch, ok = q.popBatch(batch[:0], maxWriteBatch)
		if !ok {
			return
		}
		sent := t.writeBatch(to, &conn, &backoff, batch, &bufs)
		for i, f := range batch {
			f.release()
			batch[i] = nil
		}
		if !sent {
			return
		}
	}
}

// writeBatch writes one popped batch, (re)dialing as needed; it returns
// false only when the transport is shutting down.
func (t *TCP) writeBatch(to int, conn *net.Conn, backoff *time.Duration, batch []*frame, bufs *net.Buffers) bool {
	for {
		if *conn == nil {
			c, err := net.DialTimeout("tcp", t.peers[to], writeTimeout)
			if err == nil {
				var hello [frameHeaderLen + 4]byte
				binary.BigEndian.PutUint32(hello[:], 4)
				binary.BigEndian.PutUint32(hello[frameHeaderLen:], uint32(t.id))
				c.SetWriteDeadline(time.Now().Add(writeTimeout))
				if _, werr := c.Write(hello[:]); werr != nil {
					err = werr
					c.Close()
				}
				if err == nil {
					*conn = c
					*backoff = 25 * time.Millisecond
					t.logf("connected to peer %d at %s", to, t.peers[to])
				}
			}
			if *conn == nil {
				t.logf("dial peer %d (%s) failed: %v; retrying in %s", to, t.peers[to], err, *backoff)
				select {
				case <-t.quit:
					return false
				case <-time.After(*backoff):
				}
				if *backoff *= 2; *backoff > t.opts.DialBackoffMax {
					*backoff = t.opts.DialBackoffMax
				}
				continue
			}
		}
		// net.Buffers.WriteTo consumes the slice-of-slices (it advances
		// through it), so rebuild it from the batch on every attempt; the
		// frame bytes themselves are only ever read.
		*bufs = (*bufs)[:0]
		for _, f := range batch {
			*bufs = append(*bufs, f.buf)
		}
		(*conn).SetWriteDeadline(time.Now().Add(writeTimeout))
		if _, err := bufs.WriteTo(*conn); err != nil {
			t.logf("write to peer %d failed: %v; reconnecting", to, err)
			(*conn).Close()
			*conn = nil
			select {
			case <-t.quit:
				return false
			default:
			}
			continue
		}
		return true
	}
}

// acceptLoop admits inbound connections: read the hello frame naming the
// peer, then feed its frames to the node loop until the connection dies.
func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			select {
			case <-t.quit:
				return
			default:
			}
			t.logf("accept failed: %v", err)
			return
		}
		t.mu.Lock()
		t.conns[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

func (t *TCP) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.conns, conn)
		t.mu.Unlock()
	}()
	// One reusable frame buffer serves the whole connection: each payload
	// is borrowed until the next read, and the decoder's no-aliasing
	// contract means the decoded message survives the buffer's reuse.
	fr := frameReader{r: conn}
	var dec wire.Decoder
	hello, err := fr.next()
	if err != nil || len(hello) != 4 {
		t.logf("inbound connection rejected: bad hello (%v)", err)
		return
	}
	// A replica never dials itself (self-delivery is deliverLocal), so a
	// socket claiming this endpoint's id could only vote in its name.
	from := int(binary.BigEndian.Uint32(hello)) // negative where int is 32 bits
	if from < 0 || from >= len(t.peers) || from == t.id {
		t.logf("inbound connection from %s rejected: hello claims replica %d", conn.RemoteAddr(), from)
		return
	}
	t.logf("peer %d connected from %s", from, conn.RemoteAddr())
	for {
		payload, err := fr.next()
		if err != nil {
			if err != io.EOF {
				t.logf("read from peer %d failed: %v", from, err)
			}
			return
		}
		msg, err := dec.Decode(payload)
		if err != nil {
			t.decodeErrs.Add(1)
			t.logf("malformed frame from peer %d dropped: %v", from, err)
			continue
		}
		t.msgs.Add(1)
		t.bytes.Add(uint64(len(payload)))
		t.node.enqueue(from, msg)
	}
}

// Messages returns the messages delivered to the local replica.
func (t *TCP) Messages() uint64 { return t.msgs.Load() }

// Bytes returns the encoded bytes delivered to the local replica.
func (t *TCP) Bytes() uint64 { return t.bytes.Load() }

// Dropped returns outbound frames discarded at the per-peer queue cap
// (oldest-first); nonzero means some peer could not keep up and will need
// view changes or state transfer to recover the lost messages.
func (t *TCP) Dropped() uint64 { return t.dropped.Load() }

// EncodeErrors counts messages dropped because wire encoding failed.
// Always zero in a correct build: the replica message set is closed.
func (t *TCP) EncodeErrors() uint64 { return t.encodeErrs.Load() }

// DecodeErrors counts inbound frames dropped because decoding failed: a
// malformed frame from a remote peer.
func (t *TCP) DecodeErrors() uint64 { return t.decodeErrs.Load() }

// Close shuts the transport down: the listener stops, outbound queues
// close after draining nothing further, and all connection goroutines
// exit before Close returns. The node loop is not touched — stop it
// separately so in-flight handler work finishes first.
func (t *TCP) Close() {
	t.close.Do(func() {
		close(t.quit)
		t.ln.Close()
		t.mu.Lock()
		for _, q := range t.out {
			q.shut()
		}
		for c := range t.conns {
			c.Close()
		}
		t.mu.Unlock()
		t.wg.Wait()
	})
}

var _ types.Network = (*TCP)(nil)
