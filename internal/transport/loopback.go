package transport

import (
	"fmt"
	"net"

	"repro/internal/types"
)

// Loopback is a whole cluster over real sockets in one process: n TCP
// endpoints on reserved 127.0.0.1 ports, one per node loop of the embedded
// Proc. Send and Broadcast go through the endpoint of from, a replica;
// Proc's node loops, Register and InjectTo (client messages, off the
// measured traffic) serve as they are.
type Loopback struct {
	*Proc
	eps []*TCP
}

// NewLoopback reserves the n ports and builds an endpoint on each, with
// opts but for the Listener. On error it closes what it opened.
func NewLoopback(n int, opts TCPOptions) (*Loopback, error) {
	l := &Loopback{Proc: NewProc(n), eps: make([]*TCP, n)}
	lns, peers := make([]net.Listener, n), make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, ln := range lns[:i] {
				ln.Close()
			}
			return nil, fmt.Errorf("transport: loopback listen: %w", err)
		}
		lns[i], peers[i] = ln, ln.Addr().String()
	}
	for i, ln := range lns {
		opts.Listener = ln
		// Cannot fail: the id is in the peer table and the listener open.
		l.eps[i], _ = NewTCP(i, peers, l.Node(i), opts)
	}
	return l, nil
}

// Send implements types.Network.
func (l *Loopback) Send(from, to int, msg any) { l.eps[from].Send(from, to, msg) }

// Broadcast implements types.Network.
func (l *Loopback) Broadcast(from int, msg any) { l.eps[from].Broadcast(from, msg) }

// Stop terminates every node loop, so no replica sends again, then closes
// every endpoint and waits for its goroutines.
func (l *Loopback) Stop() {
	l.Proc.Stop()
	for _, t := range l.eps {
		t.Close()
	}
}

// Messages returns the messages the endpoints delivered.
func (l *Loopback) Messages() uint64 { return l.sum((*TCP).Messages) }

// Bytes returns the encoded bytes the endpoints delivered.
func (l *Loopback) Bytes() uint64 { return l.sum((*TCP).Bytes) }

// Dropped returns the frames the endpoints discarded at their queue caps.
func (l *Loopback) Dropped() uint64 { return l.sum((*TCP).Dropped) }

func (l *Loopback) sum(count func(*TCP) uint64) (total uint64) {
	for _, t := range l.eps {
		total += count(t)
	}
	return total
}

var _ types.Network = (*Loopback)(nil)
