package orthrus

import (
	"errors"
	"testing"

	"repro/internal/pbft"
)

// TestClusterSizeValidation pins the SDK's large-n contract: sizes in
// [1, MaxReplicas] validate, anything outside is an ErrInvalidConfig
// naming the Replicas field.
func TestClusterSizeValidation(t *testing.T) {
	for _, n := range []int{1, 4, 100, MaxReplicas} {
		cfg := NewConfig(WithReplicas(n))
		if err := cfg.Validate(); err != nil {
			t.Fatalf("WithReplicas(%d): %v", n, err)
		}
		if cfg.Replicas != n {
			t.Fatalf("WithReplicas(%d) set Replicas = %d", n, cfg.Replicas)
		}
	}
	for _, n := range []int{0, -3, MaxReplicas + 1, 100000} {
		err := NewConfig(WithReplicas(n)).Validate()
		if err == nil {
			t.Fatalf("WithReplicas(%d): expected validation error", n)
		}
		if !errors.Is(err, ErrInvalidConfig) {
			t.Fatalf("WithReplicas(%d): %v does not wrap ErrInvalidConfig", n, err)
		}
		var ve *ValidationError
		if !errors.As(err, &ve) || ve.Field != "Replicas" {
			t.Fatalf("WithReplicas(%d): error %v does not name Replicas", n, err)
		}
	}
}

// TestQuorumMathPerProtocol checks, for every registered protocol and
// every F-scale cluster size, that a validated configuration lowers onto
// engines whose quorum intersects honestly: q = ceil((n+f+1)/2) with
// f = (n-1)/3 (the SDK shares one engine config across protocols; the
// engine-level sweep lives in internal/pbft).
func TestQuorumMathPerProtocol(t *testing.T) {
	for _, p := range Protocols() {
		for _, n := range []int{4, 10, 25, 50, 100, MaxReplicas} {
			if err := NewConfig(WithProtocol(p.Name()), WithReplicas(n)).Validate(); err != nil {
				t.Fatalf("%s n=%d rejected: %v", p.Name(), n, err)
			}
			f := (n - 1) / 3
			q := pbft.Quorum(n, f)
			if 2*q-n <= f {
				t.Fatalf("%s n=%d: quorum %d intersection not honest", p.Name(), n, q)
			}
			if q > n-f {
				t.Fatalf("%s n=%d: quorum %d unreachable under f faults", p.Name(), n, q)
			}
		}
	}
}
