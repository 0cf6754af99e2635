package core

// The cascade-equivalence test layer: grouped leave cascades
// (Config.GroupedCascade) rewrite the hottest correctness-critical path
// of the protocol, so they get the same proof obligations the op
// scheduler got in sched_test.go — same-seed lockstep, determinism,
// invariant preservation — plus the two claims specific to grouping: the
// write-footprint drop (~|C|^2 -> ~|C| clusters per leave) and the
// ledger split (cascade traffic separable under metrics.ClassCascade).

import (
	"testing"

	"nowover/internal/ids"
	"nowover/internal/metrics"
	"nowover/internal/xrand"
)

// newCascadeWorld builds a bootstrapped world like newTestWorld, with the
// leave cascade batched into grouped shuffle rounds.
func newCascadeWorld(t testing.TB, seed uint64) *World {
	t.Helper()
	cfg := DefaultConfig(512)
	cfg.Seed = seed
	cfg.GroupedCascade = true
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Bootstrap(200, func(slot int) bool { return slot%5 == 0 }); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestGroupedCascadeMatchesSerial is the determinism regression for
// grouped cascades, mirroring TestBatchRepeatableAcrossRuns: in BOTH
// cascade modes, two same-seed worlds fed identical batches must stay in
// IDENTICAL protocol states — same membership, same stats, same security
// counters, same ledger totals — with the full invariant layer holding
// after every batch. The grouped pair and the per-receiver pair run side
// by side, and the ledger split is checked per mode: grouped runs charge
// the cascade class, the per-receiver composition never does.
func TestGroupedCascadeMatchesSerial(t *testing.T) {
	type pair struct {
		name             string
		a, b             *World
		rngA, rngB       *xrand.Rand
		wantCascadeClass bool
	}
	pairs := []*pair{
		{name: "grouped", a: newCascadeWorld(t, 42), b: newCascadeWorld(t, 42),
			rngA: xrand.New(7), rngB: xrand.New(7), wantCascadeClass: true},
		{name: "per-receiver", a: newTestWorld(t, 42), b: newTestWorld(t, 42),
			rngA: xrand.New(7), rngB: xrand.New(7), wantCascadeClass: false},
	}
	batches := 25
	if testing.Short() {
		batches = 8
	}
	for i := 0; i < batches; i++ {
		for _, p := range pairs {
			resA := p.a.ExecBatch(randomBatch(p.a, p.rngA, 8))
			resB := p.b.ExecBatch(randomBatch(p.b, p.rngB, 8))
			for j := range resA {
				if resA[j].Node != resB[j].Node || (resA[j].Err == nil) != (resB[j].Err == nil) ||
					resA[j].Deferred != resB[j].Deferred {
					t.Fatalf("%s: batch %d op %d diverged: %+v vs %+v", p.name, i, j, resA[j], resB[j])
				}
			}
			if fa, fb := worldFingerprint(p.a), worldFingerprint(p.b); fa != fb {
				t.Fatalf("%s: state diverged after batch %d:\n%s\nvs\n%s", p.name, i, fa, fb)
			}
			if err := CheckInvariants(p.a); err != nil {
				t.Fatalf("%s: invariants after batch %d: %v", p.name, i, err)
			}
		}
	}
	for _, p := range pairs {
		if got := p.a.Ledger().MessagesBy(metrics.ClassCascade) > 0; got != p.wantCascadeClass {
			t.Errorf("%s: cascade-class traffic present=%v, want %v (total %d)",
				p.name, got, p.wantCascadeClass, p.a.Ledger().MessagesBy(metrics.ClassCascade))
		}
	}
}

// TestGroupedCascadeClassicDeterminism: the classic one-op-per-call API
// with grouped cascades is a pure function of the seed (the grouped round
// draws from the same single stream the per-receiver cascade used).
func TestGroupedCascadeClassicDeterminism(t *testing.T) {
	run := func() string {
		w := newCascadeWorld(t, 99)
		r := xrand.New(3)
		for i := 0; i < 30; i++ {
			if i%3 == 2 {
				if x, ok := w.RandomNode(r); ok {
					if err := w.Leave(x); err != nil {
						t.Fatal(err)
					}
				}
				continue
			}
			if _, err := w.JoinAuto(r.Bool(0.2)); err != nil {
				t.Fatal(err)
			}
		}
		if err := CheckInvariants(w); err != nil {
			t.Fatal(err)
		}
		return worldFingerprint(w)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("classic grouped-cascade runs diverged:\n%s\nvs\n%s", a, b)
	}
}

// planLeaveFootprint plans a single leave against a quiescent world and
// reports its write footprint plus whether the plan reached the cascade
// (a deferred plan stopped before cascading is not a fair comparison).
func planLeaveFootprint(w *World, x ids.NodeID, planSeed uint64) (writes int, usable bool) {
	p := &batchPlan{
		op:     Op{Kind: OpLeave, Victim: x},
		writes: make(ids.ClusterSet),
	}
	ctx, err := newPlanContext(w)
	if err != nil {
		panic(err) // NewWorld validated the config; unreachable
	}
	w.planOp(ctx, p, xrand.New(planSeed))
	if p.err != nil || p.deferred {
		return len(p.writes), false
	}
	return len(p.writes), true
}

// TestGroupedCascadeShrinksLeaveFootprint is the tentpole's load-bearing
// claim, measured directly at the planner: the same leave planned on
// identical worlds must write FAR fewer clusters under the grouped
// cascade. The per-receiver cascade exchanges every member of every
// receiver (~|C|^2 cluster writes); the grouped round performs one swap
// per receiver (~|C|). The gap only materializes when the overlay has
// many more clusters than one cascade can touch (#clusters >> |C|^2 — the
// simulation-scale admission regime ROADMAP targets), so this test runs a
// cluster-rich configuration: |C| ~ 8 across ~128 clusters. Demand at
// least a 2x drop on every sampled victim and 3x on average; the
// asymptotic ratio is |C|/2, diluted here by birthday collisions among
// the per-receiver cascade's partner draws.
func TestGroupedCascadeShrinksLeaveFootprint(t *testing.T) {
	mk := func(grouped bool) *World {
		cfg := DefaultConfig(2048)
		cfg.Seed = 7
		cfg.K = 0.75 // small clusters -> cluster-rich overlay (n/|C| ~ 128)
		cfg.GroupedCascade = grouped
		w, err := NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Bootstrap(1024, func(slot int) bool { return slot%7 == 0 }); err != nil {
			t.Fatal(err)
		}
		return w
	}
	classic, grouped := mk(false), mk(true)
	if a, b := worldFingerprint(classic), worldFingerprint(grouped); a != b {
		t.Fatalf("bootstrap fingerprints differ between cascade modes:\n%s\nvs\n%s", a, b)
	}
	r := xrand.New(11)
	samples, ratioSum := 0, 0.0
	for i := 0; i < 40 && samples < 8; i++ {
		x, ok := classic.RandomNode(r)
		if !ok {
			t.Fatal("no nodes to sample")
		}
		cw, cok := planLeaveFootprint(classic, x, uint64(1000+i))
		gw, gok := planLeaveFootprint(grouped, x, uint64(1000+i))
		if !cok || !gok {
			continue // deferred (merge/emptied): cascade never ran
		}
		if gw*2 > cw {
			t.Errorf("victim %v: grouped leave writes %d clusters vs %d per-receiver — less than a 2x drop", x, gw, cw)
		}
		ratioSum += float64(cw) / float64(gw)
		samples++
	}
	if samples < 4 {
		t.Fatalf("only %d comparable leave plans in 40 draws", samples)
	}
	if avg := ratioSum / float64(samples); avg < 3 {
		t.Errorf("mean footprint ratio %.1fx across %d leaves, want >= 3x", avg, samples)
	}
}

// TestGroupedCascadeIntoMerge pins the structural corner the fuzz seed
// corpus also steers at (seed-cascade-into-merge): a leave whose grouped
// cascade round is followed by the source cluster falling below the merge
// threshold must still merge correctly — on the scheduler's serial tail,
// since merges are structural — and leave every invariant intact.
func TestGroupedCascadeIntoMerge(t *testing.T) {
	w := newCascadeWorld(t, 5)
	r := xrand.New(9)
	minPop := 2 * w.Config().TargetClusterSize()
	sawMergeDefer := false
	for i := 0; i < 200 && w.Stats().Merges == 0 && w.NumNodes() > minPop; i++ {
		ops := make([]Op, 0, 4)
		used := make(ids.NodeSet)
		for len(ops) < 4 {
			x, ok := w.RandomNode(r)
			if !ok || !used.Add(x) {
				continue
			}
			ops = append(ops, Op{Kind: OpLeave, Victim: x})
		}
		for _, rr := range w.ExecBatch(ops) {
			if rr.Err != nil && !IsUnknownNode(rr.Err) {
				t.Fatal(rr.Err)
			}
			if rr.Deferred && rr.DeferReason == "merge required" {
				sawMergeDefer = true
			}
		}
		if err := CheckInvariants(w); err != nil {
			t.Fatalf("invariants after shrink batch %d: %v", i, err)
		}
	}
	if w.Stats().Merges == 0 {
		t.Fatal("shrinking never triggered a merge after a grouped cascade")
	}
	if !sawMergeDefer {
		t.Fatal("merge happened without a merge-required deferral: structural work escaped the tail")
	}
}

// TestGroupedCascadeLedgerSplit: on one world, leave costs must split
// cleanly — primary-exchange traffic under ClassExchange, cascade traffic
// under ClassCascade — so experiments can attribute the cascade's share
// of a leave. Join-only churn must never charge the cascade class.
func TestGroupedCascadeLedgerSplit(t *testing.T) {
	w := newCascadeWorld(t, 31)
	if got := w.Ledger().MessagesBy(metrics.ClassCascade); got != 0 {
		t.Fatalf("bootstrap charged %d cascade messages", got)
	}
	for i := 0; i < 5; i++ {
		if _, err := w.JoinAuto(false); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.Ledger().MessagesBy(metrics.ClassCascade); got != 0 {
		t.Fatalf("joins charged %d cascade messages; only leave cascades may", got)
	}
	r := xrand.New(1)
	before := w.Ledger().Snapshot()
	for i := 0; i < 5; i++ {
		x, _ := w.RandomNode(r)
		if err := w.Leave(x); err != nil {
			t.Fatal(err)
		}
	}
	cost := w.Ledger().Since(before)
	if cost.ByClass[metrics.ClassCascade] == 0 {
		t.Error("five leaves charged no cascade-class traffic")
	}
	if cost.ByClass[metrics.ClassExchange] == 0 {
		t.Error("five leaves charged no primary exchange traffic")
	}
}
