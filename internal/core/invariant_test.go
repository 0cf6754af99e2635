package core

import (
	"testing"

	"nowover/internal/xrand"
)

// requireInvariants is the test-layer wrapper around the reusable
// CheckInvariants oracle.
func requireInvariants(t testing.TB, w *World) {
	t.Helper()
	if err := CheckInvariants(w); err != nil {
		t.Fatal(err)
	}
}

func TestInvariantsHoldAtBootstrap(t *testing.T) {
	requireInvariants(t, newTestWorld(t, 5))
}

// TestInvariantsAfterRandomOps drives randomized operation sequences —
// batched through the op scheduler plus interleaved classic ops — and
// asserts CheckInvariants after every step. This is the reusable
// invariant-layer entry point the ISSUE asks for: any future maintenance
// change that can corrupt membership, Byzantine counts, size bounds or the
// overlay/partition correspondence fails here first.
func TestInvariantsAfterRandomOps(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5, 6}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		w := newTestWorld(t, seed)
		r := xrand.New(seed ^ 0xBEEF)
		for step := 0; step < 12; step++ {
			switch r.Intn(3) {
			case 0:
				w.ExecBatch(randomBatch(w, r, 1+r.Intn(8)))
			case 1:
				if _, err := w.JoinAuto(r.Bool(0.2)); err != nil {
					t.Fatalf("seed=%d: %v", seed, err)
				}
			case 2:
				if x, ok := w.RandomNode(r); ok {
					if err := w.Leave(x); err != nil {
						t.Fatalf("seed=%d: %v", seed, err)
					}
				}
			}
			if err := CheckInvariants(w); err != nil {
				t.Fatalf("seed=%d step=%d: %v", seed, step, err)
			}
		}
	}
}

// TestInvariantsWithRejoinMerge exercises the MergeRejoinAll strategy
// (pending-rejoin queue) under batches: merges run on the scheduler's
// tail and displace nodes that must be re-joined via the classic
// path without breaking any index.
func TestInvariantsWithRejoinMerge(t *testing.T) {
	cfg := DefaultConfig(512)
	cfg.Seed = 17
	cfg.MergeStrategy = MergeRejoinAll
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Bootstrap(200, func(slot int) bool { return slot%6 == 0 }); err != nil {
		t.Fatal(err)
	}
	r := xrand.New(31)
	for step := 0; step < 25; step++ {
		// Drain displaced nodes first, like the simulator does.
		for _, x := range w.PendingRejoins() {
			if err := w.Rejoin(x); err != nil {
				t.Fatal(err)
			}
		}
		ops := make([]Op, 0, 4)
		for len(ops) < 4 {
			x, ok := w.RandomNode(r)
			if !ok {
				break
			}
			ops = append(ops, Op{Kind: OpLeave, Victim: x})
		}
		for _, rr := range w.ExecBatch(ops) {
			if rr.Err != nil && !IsUnknownNode(rr.Err) {
				t.Fatal(rr.Err)
			}
		}
		requireInvariants(t, w)
		if w.NumNodes() < 3*w.cfg.TargetClusterSize() {
			break // shrunk far enough to have exercised merges
		}
	}
	if w.Stats().Merges == 0 {
		t.Fatal("shrink run produced no merges")
	}
}

// TestCheckInvariantsDetectsBreakage corrupts the bookkeeping directly and
// confirms the oracle notices — an oracle that cannot fail is worthless.
func TestCheckInvariantsDetectsBreakage(t *testing.T) {
	w := newTestWorld(t, 23)
	// Silently drop one member from a cluster's list without touching any
	// derived index (size multiset, node records, security class):
	// consistency must flag the mismatch.
	for _, cs := range w.arena.clusters {
		if cs == nil {
			continue
		}
		cs.members = cs.members[:len(cs.members)-1]
		if err := CheckInvariants(w); err == nil {
			t.Fatal("invariant oracle missed a vanished member")
		}
		return
	}
}
