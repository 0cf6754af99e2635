package core

import (
	"fmt"
	"runtime"
	"testing"

	"nowover/internal/adversary"
	"nowover/internal/xrand"
)

// newHookedWorld wires the full adversary stack onto a test world: a
// JoinLeaveAttack fixation feeding a CapturedHijacker that both redirects
// walks (SetHijacker) and steers randCl scoring (SetSteerHook) — one hook
// object, both roles, one batch lifecycle.
func newHookedWorld(t testing.TB, seed uint64) (*World, *adversary.CapturedHijacker) {
	t.Helper()
	w := newTestWorld(t, seed)
	h := &adversary.CapturedHijacker{
		View:     w,
		Strategy: &adversary.JoinLeaveAttack{Budget: adversary.Budget{Tau: 0.25}},
	}
	w.SetHijacker(h)
	w.SetSteerHook(h)
	return w, h
}

// TestHookedShardedMatchesSerial is the hooked sibling of
// TestShardedMatchesSerial, and keeps its name from the same shard
// comparison: a world with a hijacker redirecting walks AND a steer hook
// biasing randCl draws, fed the same batches as a same-seed twin, must
// stay byte-identical to it after every batch, down to the hook counters,
// at any GOMAXPROCS. The contract that makes this hold: plan-phase
// Redirect/Score are pure reads of the pre-batch fixation, and all hook
// bookkeeping (capture tallies, ratchet refreshes) happens in
// BeginBatch/CommitOp, which the scheduler drives in op order. The run
// must also actually exercise the hooked paths — hijacked walks, the tail
// — and the commit fold must account for every hijacked walk.
func TestHookedShardedMatchesSerial(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)

			a, ha := newHookedWorld(t, 42)
			b, hb := newHookedWorld(t, 42)
			if fa, fb := worldFingerprint(a), worldFingerprint(b); fa != fb {
				t.Fatalf("bootstrap fingerprints differ:\n%s\nvs\n%s", fa, fb)
			}
			ra, rb := xrand.New(7), xrand.New(7)
			batches := 25
			if testing.Short() {
				batches = 8
			}
			deferred := false
			for i := 0; i < batches; i++ {
				resA := a.ExecBatch(randomBatch(a, ra, 8))
				resB := b.ExecBatch(randomBatch(b, rb, 8))
				for j := range resA {
					ea, eb := fmt.Sprint(resA[j].Err), fmt.Sprint(resB[j].Err)
					if resA[j].Node != resB[j].Node || ea != eb || resA[j].Deferred != resB[j].Deferred {
						t.Fatalf("batch %d op %d diverged: %+v vs %+v", i, j, resA[j], resB[j])
					}
					deferred = deferred || resA[j].Deferred
				}
				if fa, fb := worldFingerprint(a), worldFingerprint(b); fa != fb {
					t.Fatalf("state diverged after batch %d:\n%s\nvs\n%s", i, fa, fb)
				}
				if ha.Hijacked != hb.Hijacked || ha.CommittedOps != hb.CommittedOps {
					t.Fatalf("hook bookkeeping diverged after batch %d: hijacked %d/%d ops %d/%d",
						i, ha.Hijacked, hb.Hijacked, ha.CommittedOps, hb.CommittedOps)
				}
				if err := CheckInvariants(a); err != nil {
					t.Fatalf("invariants after batch %d: %v", i, err)
				}
			}
			if a.Stats() != b.Stats() {
				t.Fatalf("final stats diverged:\n%+v\nvs\n%+v", a.Stats(), b.Stats())
			}
			if a.Stats().HijackedWalks == 0 {
				t.Fatal("hooked run hijacked no walks: the redirect path never ran")
			}
			if ha.Hijacked != a.Stats().HijackedWalks {
				t.Fatalf("commit fold lost walks: hook saw %d, world recorded %d",
					ha.Hijacked, a.Stats().HijackedWalks)
			}
			if !deferred {
				t.Fatal("no op ever deferred: the hooked tail path never ran")
			}
		})
	}
}

// TestHookedRepeatableAcrossRuns guards the hook lifecycle against
// map-iteration or scheduling order leaking into results (the hooked
// sibling of TestBatchRepeatableAcrossRuns).
func TestHookedRepeatableAcrossRuns(t *testing.T) {
	run := func() (string, int64, int64) {
		w, h := newHookedWorld(t, 1234)
		r := xrand.New(5)
		for i := 0; i < 10; i++ {
			w.ExecBatch(randomBatch(w, r, 6))
		}
		return worldFingerprint(w), h.Hijacked, h.CommittedOps
	}
	fa, hija, opsa := run()
	fb, hijb, opsb := run()
	if fa != fb || hija != hijb || opsa != opsb {
		t.Fatalf("repeat hooked runs diverged: hijacked %d/%d ops %d/%d\n%s\nvs\n%s",
			hija, hijb, opsa, opsb, fa, fb)
	}
}

// TestHookLifecycleDedup: one object registered as both hijacker and
// steerer must see exactly one BeginBatch/CommitOp stream, and replacing
// or clearing hooks must detach the lifecycle.
func TestHookLifecycleDedup(t *testing.T) {
	w := newTestWorld(t, 9)
	h := &adversary.CapturedHijacker{
		View:     w,
		Strategy: &adversary.JoinLeaveAttack{Budget: adversary.Budget{Tau: 0.25}},
	}
	w.SetHijacker(h)
	w.SetSteerHook(h)
	res := w.ExecBatch([]Op{{Kind: OpJoin}, {Kind: OpJoin}})
	for _, rr := range res {
		if rr.Err != nil {
			t.Fatal(rr.Err)
		}
	}
	if h.CommittedOps != 2 {
		t.Fatalf("dual-registered hook saw %d commits for a 2-op batch, want 2 (dedup failed)", h.CommittedOps)
	}
	w.SetHijacker(nil)
	w.SetSteerHook(nil)
	w.ExecBatch([]Op{{Kind: OpJoin}})
	if h.CommittedOps != 2 {
		t.Fatalf("cleared hook still saw commits: %d", h.CommittedOps)
	}
}

// BenchmarkExecBatchHookedExchange is the hooked-plan hot path the gate
// enforces: the lean exchange regime with a live hijacker+steer hook. The
// hook contract is designed so steady state adds ZERO allocations over the
// unhooked path — BeginBatch revalidates the cached fixation with a Size
// probe, Redirect/Score are pure reads, and CommitOp folds into existing
// counters.
func BenchmarkExecBatchHookedExchange(b *testing.B) {
	w, _ := newHookedWorld(b, 42)
	r := xrand.New(7)
	var ops []Op
	var res []OpResult
	for i := 0; i < 32; i++ {
		ops = fillExchangeBatch(w, r, ops, 4)
		res = w.ExecBatchInto(res, ops)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops = fillExchangeBatch(w, r, ops, 4)
		res = w.ExecBatchInto(res, ops)
	}
	_ = res
}
