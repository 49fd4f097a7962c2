package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"repro/internal/pbft"
	"repro/internal/types"
)

// chunkedReader serves its data in fixed-size chunks, forcing the frame
// reader through every split-read path: headers straddling reads,
// payloads arriving a byte at a time, EOF mid-frame.
type chunkedReader struct {
	data  []byte
	chunk int
}

func (c *chunkedReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := min(len(p), min(c.chunk, len(c.data)))
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

// parseFrames drains a frameReader over data served in chunk-sized
// reads, returning the payload sequence and the terminating error text.
func parseFrames(data []byte, chunk int) ([][]byte, string) {
	fr := frameReader{r: &chunkedReader{data: data, chunk: chunk}}
	var payloads [][]byte
	for {
		p, err := fr.next()
		if err != nil {
			return payloads, err.Error()
		}
		payloads = append(payloads, bytes.Clone(p))
	}
}

// frameStream concatenates length-prefixed frames around the payloads.
func frameStream(payloads ...[]byte) []byte {
	var out []byte
	for _, p := range payloads {
		out = binary.BigEndian.AppendUint32(out, uint32(len(p)))
		out = append(out, p...)
	}
	return out
}

// FuzzFrameReader throws arbitrary byte streams at the TCP frame reader
// and pins two properties:
//
//  1. next never panics and never returns a payload longer than the
//     maxFrameLen bound, whatever the length prefix claims.
//  2. Parsing is independent of read fragmentation: the same stream
//     served one byte at a time yields the same payload sequence and
//     the same terminating error as any other chunking — partial
//     headers and split payloads change nothing.
//
// The seed corpus covers the interesting shapes: a real pooled-frame
// encoding, a zero-length payload, back-to-back frames, a truncated
// header, a truncated payload, and an oversized length prefix.
func FuzzFrameReader(f *testing.F) {
	proposal, err := encodeFrame(testProposal())
	if err != nil {
		f.Fatal(err)
	}
	prepare, err := encodeFrame(&pbft.Prepare{Instance: 1, View: 2, Seq: 3, Digest: types.BlockID{7}, Replica: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Clone(proposal.buf), uint8(1))                             // one pooled-frame encoding
	f.Add(frameStream(nil), uint8(1))                                      // zero-length payload
	f.Add(append(bytes.Clone(proposal.buf), prepare.buf...), uint8(3))     // back-to-back frames
	f.Add([]byte{0, 0}, uint8(1))                                          // truncated header
	f.Add([]byte{0, 0, 0, 9, 1, 2, 3}, uint8(2))                           // truncated payload
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrameLen), uint8(1))       // max-length claim, truncated body
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrameLen+1), uint8(1))     // oversized length
	f.Add(frameStream([]byte{5}, bytes.Repeat([]byte{6}, 300)), uint8(16)) // growth across frames
	proposal.recycle()
	prepare.recycle()
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		got, gotErr := parseFrames(data, int(chunk%16)+1)
		want, wantErr := parseFrames(data, 1)
		if gotErr != wantErr {
			t.Fatalf("terminating error depends on chunking: %q (chunk %d) vs %q (chunk 1)", gotErr, int(chunk%16)+1, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("frame count depends on chunking: %d vs %d", len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("frame %d depends on chunking:\n  %x\n  %x", i, got[i], want[i])
			}
			if len(got[i]) > maxFrameLen {
				t.Fatalf("frame %d of %d bytes exceeds maxFrameLen", i, len(got[i]))
			}
		}
	})
}
