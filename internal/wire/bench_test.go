package wire

import (
	"fmt"
	"testing"
)

// benchName labels one message-type cell of the codec benchmarks.
func benchName(msg any) string {
	return fmt.Sprintf("%T", msg)[len("*"):]
}

// BenchmarkWireAppend measures encoding each message type into a
// preallocated scratch buffer — the pooled-frame hot path every real
// transport send takes. With the buffer warm, Append must not allocate
// at all (TestAppendZeroAllocs pins exactly that).
func BenchmarkWireAppend(b *testing.B) {
	for _, msg := range messages() {
		b.Run(benchName(msg), func(b *testing.B) {
			buf := make([]byte, 0, 4096)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				buf, err = Append(buf[:0], msg)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWireDecode measures decoding each message type one-shot, a
// fresh Decoder per message: what benchmark probes and tests pay. Decoded
// messages own their memory (the receiver keeps them), so these allocs are
// inherent.
func BenchmarkWireDecode(b *testing.B) {
	benchDecode(b, Decode)
}

// BenchmarkWireDecodeLongLived measures the same through one Decoder, the
// way a transport decodes a stream: allocations amortise to one per chunk.
func BenchmarkWireDecodeLongLived(b *testing.B) {
	var d Decoder
	benchDecode(b, d.Decode)
}

func benchDecode(b *testing.B, decode func([]byte) (any, error)) {
	for _, msg := range messages() {
		enc, err := Encode(msg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(benchName(msg), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := decode(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
