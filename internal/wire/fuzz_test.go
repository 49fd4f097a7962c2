package wire

import (
	"bytes"
	"testing"
)

// FuzzWireRoundTrip throws arbitrary bytes at the decoder (following the
// FuzzScenarioDSL pattern: the seed corpus under testdata/fuzz holds one
// valid encoding per message type plus known-malformed inputs). The
// properties pinned:
//
//  1. Decode never panics — malformed input returns an error.
//  2. Anything that decodes re-encodes, and the re-encoding is a fixed
//     point: decode(encode(m)) == m, checked as byte equality of a second
//     encode/decode round (the codec is canonical, but raw fuzz input may
//     use non-minimal varints, so the input itself is not compared).
//  3. One long-lived Decoder fed every input in turn agrees with the
//     one-shot decode: the same verdict and the same message.
func FuzzWireRoundTrip(f *testing.F) {
	// Seed every message type through the pooled-frame encode path the
	// transports use: Append onto one warm scratch buffer reused across
	// messages, exactly like a sync.Pool frame (byte-identical to Encode,
	// pinned here so corpus inputs cover that path's real outputs). Each
	// encoding is also seeded truncated mid-message and with trailing
	// garbage — the shapes a reused read buffer shows a buggy decoder.
	scratch := make([]byte, 0, 4096)
	for _, msg := range messages() {
		enc, err := Append(scratch[:0], msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.Clone(enc))
		f.Add(bytes.Clone(enc[:len(enc)/2]))
		f.Add(append(bytes.Clone(enc), 0xEE, 0xEE))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x01})
	f.Add([]byte{tagViewChange, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0x7F})
	// Blocks claiming more transactions than their bytes can hold, at the
	// old bound (one per byte) and at the true one (one per six).
	for _, per := range []int{1, 6} {
		for _, frame := range hostileFrames(4096, per) {
			f.Add(frame)
		}
	}
	var shared Decoder
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Decode(data)
		streamed, serr := shared.Decode(data)
		if (err == nil) != (serr == nil) {
			t.Fatalf("one-shot decode says %v, a long-lived Decoder %v", err, serr)
		}
		if err != nil {
			return
		}
		enc, err := Encode(msg)
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %v", err)
		}
		if senc, err := Encode(streamed); err != nil || !bytes.Equal(senc, enc) {
			t.Fatalf("a long-lived Decoder decoded a different message (%v):\n  one-shot:   %x\n  long-lived: %x", err, enc, senc)
		}
		msg2, err := Decode(enc)
		if err != nil {
			t.Fatalf("canonical re-encoding failed to decode: %v", err)
		}
		enc2, err := Encode(msg2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not a fixed point:\n  first:  %x\n  second: %x", enc, enc2)
		}
	})
}
