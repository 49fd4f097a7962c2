package wire

import (
	"bytes"
	"testing"
)

// TestAppendZeroAllocs pins the encode side of the transport hot path:
// appending any replica message to a warm scratch buffer (one with
// enough capacity left from a previous encoding, the steady state of the
// transport's frame pool) performs zero heap allocations. A regression
// here silently reintroduces per-message garbage on every send.
func TestAppendZeroAllocs(t *testing.T) {
	for _, msg := range messages() {
		warm, err := Append(nil, msg)
		if err != nil {
			t.Fatalf("Append(%T): %v", msg, err)
		}
		buf := make([]byte, 0, 2*cap(warm))
		if allocs := testing.AllocsPerRun(100, func() {
			out, err := Append(buf[:0], msg)
			if err != nil || len(out) == 0 {
				t.Fatalf("Append(%T): %v", msg, err)
			}
		}); allocs != 0 {
			t.Errorf("Append(%T) on a warm buffer allocates %.1f times per op, want 0", msg, allocs)
		}
	}
}

// TestDecodeOwnsItsData pins the decoders' ownership contract: the returned
// message never aliases the input buffer, so callers (the TCP read loop,
// the pooled-frame path) may reuse or scribble the input immediately. The
// check scribbles the input after decoding and verifies the decoded
// message still re-encodes to the original bytes — any retained alias
// would corrupt the re-encoding. A long-lived Decoder is held to the same
// contract with every message it decoded so far checked again at the end:
// its chunks outlive the call, the input must not be among them.
func TestDecodeOwnsItsData(t *testing.T) {
	var d Decoder
	var kept []any
	var want [][]byte
	for _, decode := range []func([]byte) (any, error){Decode, d.Decode} {
		for _, msg := range messages() {
			enc, err := Encode(msg)
			if err != nil {
				t.Fatalf("Encode(%T): %v", msg, err)
			}
			pristine := bytes.Clone(enc)
			dec, err := decode(enc)
			if err != nil {
				t.Fatalf("Decode(%T): %v", msg, err)
			}
			for i := range enc {
				enc[i] = 0xFF
			}
			kept, want = append(kept, dec), append(want, pristine)
		}
	}
	for i, dec := range kept {
		re, err := Encode(dec)
		if err != nil {
			t.Fatalf("re-Encode(%T) after scribbling the input: %v", dec, err)
		}
		if !bytes.Equal(re, want[i]) {
			t.Errorf("%T: decoded message aliases the input buffer (re-encoding changed after scribble)\n  want: %x\n  got:  %x", dec, want[i], re)
		}
	}
}
