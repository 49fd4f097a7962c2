package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/wire"
)

// frame is one pooled, refcounted wire buffer: the 4-byte big-endian
// length header followed by the wire-encoded payload, encoded in place
// so the frame IS the encode buffer — no second copy between codec and
// socket. A frame is written once by its sender (encodeFrame), then
// read-only: broadcasts share one frame across every peer queue, and
// each holder calls release exactly once, the last returning the buffer
// to the pool. refs is only meaningful once the sender has published
// the frame with retain; until then the sender owns it exclusively.
type frame struct {
	buf  []byte
	refs atomic.Int32
}

var framePool = sync.Pool{New: func() any { return &frame{buf: make([]byte, 0, 512)} }}

// encodeFrame encodes msg into a pooled frame with the length header
// sealed. The caller owns the frame: either publish it with retain +
// queue pushes, or give it back with recycle.
func encodeFrame(msg any) (*frame, error) {
	f := framePool.Get().(*frame)
	buf, err := wire.Append(append(f.buf[:0], 0, 0, 0, 0), msg)
	if err != nil {
		f.buf = buf[:0]
		framePool.Put(f)
		return nil, err
	}
	f.buf = buf
	binary.BigEndian.PutUint32(f.buf, uint32(len(f.buf)-frameHeaderLen))
	return f, nil
}

// payload returns the encoded message without the length header. The
// bytes are only valid until the frame's last release — decode before
// releasing (decoding is borrow-safe, so the decoded message survives
// the frame's recycling).
func (f *frame) payload() []byte { return f.buf[frameHeaderLen:] }

// retain publishes the frame to n holders. Call once, before the first
// push — a receiver released concurrently with a later retain could
// otherwise recycle the frame out from under the remaining pushes.
func (f *frame) retain(n int) { f.refs.Store(int32(n)) }

// release drops one holder's reference; the last one recycles.
func (f *frame) release() {
	if f.refs.Add(-1) == 0 {
		framePool.Put(f)
	}
}

// recycle returns a never-published frame straight to the pool.
func (f *frame) recycle() { framePool.Put(f) }

// frameReader reads length-prefixed frames from a byte stream into one
// reusable buffer, so a long-lived connection allocates only when a
// frame outgrows every previous one. The returned payload is borrowed:
// it is valid only until the next call — callers decode (or copy)
// before reading on, which wire.Decode's ownership contract makes safe.
type frameReader struct {
	r   io.Reader
	buf []byte
}

// next reads one frame, bounding the claimed length. Partial header or
// payload reads surface as errors from io.ReadFull, never as panics or
// truncated payloads (FuzzFrameReader pins this over split reads).
func (fr *frameReader) next() ([]byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrameLen {
		return nil, fmt.Errorf("frame of %d bytes exceeds the %d-byte bound", n, maxFrameLen)
	}
	if uint32(cap(fr.buf)) < n {
		fr.buf = make([]byte, n)
	}
	payload := fr.buf[:n]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}
