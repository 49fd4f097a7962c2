package baseline

import (
	"slices"
	"testing"

	"repro/internal/registry"
	"repro/internal/types"
)

func ref(instance int, sn uint64) types.BlockRef {
	return types.BlockRef{Instance: instance, SN: sn}
}

func blk(instance int, sn uint64) *types.Block {
	return &types.Block{Instance: instance, SN: sn}
}

func seq(refs ...types.BlockRef) *types.Block {
	return &types.Block{Instance: 99, Refs: refs}
}

func TestModeRegistry(t *testing.T) {
	want := []string{"Orthrus", "ISS", "Mir", "DQBFT", "Ladon"}
	if got := registry.Names(); !slices.Equal(got, want) {
		t.Fatalf("registry = %v, want %v", got, want)
	}
	for _, p := range registry.All() {
		if m := p.New(); m.Name != p.Name {
			t.Fatalf("%s constructs mode %q", p.Name, m.Name)
		}
	}
}

func TestModeFlags(t *testing.T) {
	if !MirMode().EpochStallOnViewChange || ISSMode().EpochStallOnViewChange {
		t.Fatal("Mir/ISS stall flags wrong")
	}
	if !DQBFTMode().Sequencer || LadonMode().Sequencer {
		t.Fatal("sequencer flags wrong")
	}
	for _, p := range registry.All() {
		if m := p.New(); m.Name != "Orthrus" && (m.FastPathPayments || m.SplitMultiPayer) {
			t.Fatalf("%s must not have Orthrus's fast path", m.Name)
		}
	}
}

func TestRefOrdererSequencerDecidesOrder(t *testing.T) {
	r := NewRefOrderer()
	// Worker blocks arrive before any sequencer decision: nothing confirms.
	if out := r.OnWorkerDeliver(blk(0, 0)); out != nil {
		t.Fatalf("confirmed %v without sequencer", out)
	}
	if out := r.OnWorkerDeliver(blk(1, 0)); out != nil {
		t.Fatalf("confirmed %v without sequencer", out)
	}
	if r.PendingCount() != 2 {
		t.Fatalf("pending %d", r.PendingCount())
	}
	// The sequencer orders instance 1's block first.
	out := r.OnSequencerDeliver(seq(ref(1, 0), ref(0, 0)))
	if len(out) != 2 || out[0].Instance != 1 || out[1].Instance != 0 {
		t.Fatalf("order wrong: %v", out)
	}
	if r.PendingCount() != 0 {
		t.Fatal("pending not drained")
	}
}

func TestRefOrdererWaitsForLocalDelivery(t *testing.T) {
	r := NewRefOrderer()
	// Sequencer decision arrives before the block itself.
	if out := r.OnSequencerDeliver(seq(ref(0, 0))); out != nil {
		t.Fatalf("confirmed %v before local delivery", out)
	}
	out := r.OnWorkerDeliver(blk(0, 0))
	if len(out) != 1 {
		t.Fatalf("block not confirmed after arrival: %v", out)
	}
}

func TestRefOrdererHeadBlocking(t *testing.T) {
	r := NewRefOrderer()
	r.OnSequencerDeliver(seq(ref(0, 0), ref(1, 0)))
	// The second-referenced block arrives first: it must wait for the head.
	if out := r.OnWorkerDeliver(blk(1, 0)); out != nil {
		t.Fatalf("out-of-order confirmation: %v", out)
	}
	out := r.OnWorkerDeliver(blk(0, 0))
	if len(out) != 2 || out[0].Instance != 0 || out[1].Instance != 1 {
		t.Fatalf("order wrong: %v", out)
	}
}

func TestRefOrdererDuplicateRefsIgnored(t *testing.T) {
	r := NewRefOrderer()
	r.OnWorkerDeliver(blk(0, 0))
	out := r.OnSequencerDeliver(seq(ref(0, 0), ref(0, 0)))
	if len(out) != 1 {
		t.Fatalf("duplicate ref confirmed twice: %v", out)
	}
	// A second sequencer block repeating the ref is also ignored.
	if out := r.OnSequencerDeliver(seq(ref(0, 0))); out != nil {
		t.Fatalf("replayed ref confirmed: %v", out)
	}
}
