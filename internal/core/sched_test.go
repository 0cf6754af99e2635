package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"nowover/internal/ids"
	"nowover/internal/xrand"
)

// newTestWorld builds a bootstrapped world for scheduler tests: N=512 name
// space, 200 initial nodes, 20% Byzantine.
func newTestWorld(t testing.TB, seed uint64) *World {
	t.Helper()
	cfg := DefaultConfig(512)
	cfg.Seed = seed
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Bootstrap(200, func(slot int) bool { return slot%5 == 0 }); err != nil {
		t.Fatal(err)
	}
	return w
}

// worldFingerprint renders the complete observable protocol state — sorted
// membership with allegiances, the sampling-index order (which seeds all
// future RandomNode draws), stats, security counters and ledger totals —
// so two worlds can be compared for exact equality.
func worldFingerprint(w *World) string {
	var b strings.Builder
	cs := append([]ids.ClusterID(nil), w.Clusters()...)
	sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
	for _, c := range cs {
		ms := w.Members(c)
		sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
		fmt.Fprintf(&b, "%v[%d byz=%d]:", c, len(ms), w.Byz(c))
		for _, x := range ms {
			fmt.Fprintf(&b, " %v", x)
			if w.IsByzantine(x) {
				b.WriteString("*")
			}
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "order:%v\n", w.allNodes)
	fmt.Fprintf(&b, "stats:%+v\n", w.Stats())
	deg, cap := w.CurrentInsecure()
	fmt.Fprintf(&b, "insecure:%d/%d max=%d n=%d\n", deg, cap, w.MaxClusterSize(), w.NumNodes())
	fmt.Fprintf(&b, "cost:%d/%d\n", w.Ledger().Messages(), w.Ledger().Rounds())
	return b.String()
}

// randomBatch builds a mixed batch of ops against w's current population:
// joins (some Byzantine), leaves with distinct victims, and forced
// exchanges. Deterministic in r.
func randomBatch(w *World, r *xrand.Rand, size int) []Op {
	ops := make([]Op, 0, size)
	used := make(ids.NodeSet)
	for len(ops) < size {
		switch r.Intn(4) {
		case 0, 1:
			ops = append(ops, Op{Kind: OpJoin, Byz: r.Bool(0.2)})
		case 2:
			x, ok := w.RandomNode(r)
			if !ok || !used.Add(x) {
				continue
			}
			ops = append(ops, Op{Kind: OpLeave, Victim: x})
		case 3:
			c, ok := w.RandomCluster(r)
			if !ok {
				continue
			}
			ops = append(ops, Op{Kind: OpExchange, Target: c})
		}
	}
	return ops
}

func TestExecBatchBeforeBootstrap(t *testing.T) {
	cfg := DefaultConfig(512)
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := w.ExecBatch([]Op{{Kind: OpJoin}})
	if res[0].Err == nil {
		t.Fatal("batch before bootstrap accepted")
	}
}

func TestExecBatchJoinsLeavesExchanges(t *testing.T) {
	w := newTestWorld(t, 11)
	n0 := w.NumNodes()
	r := xrand.New(99)
	x1, _ := w.RandomNode(r)
	x2, _ := w.RandomNode(r)
	for x2 == x1 {
		x2, _ = w.RandomNode(r)
	}
	c, _ := w.RandomCluster(r)
	res := w.ExecBatch([]Op{
		{Kind: OpJoin, Byz: false},
		{Kind: OpJoin, Byz: true},
		{Kind: OpLeave, Victim: x1},
		{Kind: OpLeave, Victim: x2},
		{Kind: OpExchange, Target: c},
	})
	for i, rr := range res {
		if rr.Err != nil {
			t.Fatalf("op %d failed: %v", i, rr.Err)
		}
	}
	if res[0].Node == res[1].Node {
		t.Fatal("two joins received the same node ID")
	}
	if !w.Contains(res[0].Node) || !w.Contains(res[1].Node) {
		t.Fatal("joined nodes missing from the world")
	}
	if !w.IsByzantine(res[1].Node) || w.IsByzantine(res[0].Node) {
		t.Fatal("joiner allegiance lost in batch execution")
	}
	if w.Contains(x1) || w.Contains(x2) {
		t.Fatal("leave victims still present")
	}
	if got := w.NumNodes(); got != n0 {
		t.Fatalf("population %d after +2/-2 batch, want %d", got, n0)
	}
	st := w.Stats()
	if st.Joins != 2 || st.Leaves != 2 {
		t.Fatalf("stats joins=%d leaves=%d, want 2/2", st.Joins, st.Leaves)
	}
	if err := CheckInvariants(w); err != nil {
		t.Fatal(err)
	}
}

// TestShardedMatchesSerial is the determinism regression for the op
// scheduler. The name dates from when the world was split into lockable
// shards and this compared a one-shard world with an eight-shard one; with
// one arena left, it runs the same lockstep between two same-seed worlds.
// Fed identical batches, they must stay in IDENTICAL states — same Stats,
// same security counters, same membership, same sampling-index order,
// same ledger totals — after every batch, with the full invariant layer
// holding throughout. This holds for ALL batches, conflicting or not,
// because planning runs against the pre-batch snapshot on per-op
// substreams, admission is decided in op order from deterministic
// footprints, and conflicting or structural ops re-run on a deterministic
// tail; any map-iteration order leaking into batch results diverges here.
//
// Where divergence IS allowed: ExecBatch is NOT required to match the
// classic one-op-per-call API (Join/Leave), which threads a single shared
// RNG stream through every operation and settles security after each op.
// A batch is one paper time step with simultaneous arrivals/departures:
// per-op substreams replace the shared stream and security settles once
// per batch. The paper's guarantees are distributional — randCl placement,
// exchange uniformity and the resulting per-cluster Byzantine
// concentration bounds are unaffected by which fixed seed derivation is
// used, and the adversary's information is step-boundary state in both
// semantics.
func TestShardedMatchesSerial(t *testing.T) {
	a, b := newTestWorld(t, 42), newTestWorld(t, 42)
	if fa, fb := worldFingerprint(a), worldFingerprint(b); fa != fb {
		t.Fatalf("bootstrap fingerprints differ:\n%s\nvs\n%s", fa, fb)
	}
	ra, rb := xrand.New(7), xrand.New(7)
	batches := 25
	if testing.Short() {
		batches = 8
	}
	for i := 0; i < batches; i++ {
		resA := a.ExecBatch(randomBatch(a, ra, 8))
		resB := b.ExecBatch(randomBatch(b, rb, 8))
		for j := range resA {
			ea, eb := fmt.Sprint(resA[j].Err), fmt.Sprint(resB[j].Err)
			if resA[j].Node != resB[j].Node || ea != eb || resA[j].Deferred != resB[j].Deferred {
				t.Fatalf("batch %d op %d diverged: %+v vs %+v", i, j, resA[j], resB[j])
			}
		}
		if fa, fb := worldFingerprint(a), worldFingerprint(b); fa != fb {
			t.Fatalf("state diverged after batch %d:\n%s\nvs\n%s", i, fa, fb)
		}
		if err := CheckInvariants(a); err != nil {
			t.Fatalf("invariants after batch %d: %v", i, err)
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("final stats diverged:\n%+v\nvs\n%+v", a.Stats(), b.Stats())
	}
}

// TestBatchRepeatableAcrossRuns: re-running the same scenario yields the
// same fingerprint (guards against map-iteration order leaking into batch
// results).
func TestBatchRepeatableAcrossRuns(t *testing.T) {
	run := func() string {
		w := newTestWorld(t, 1234)
		r := xrand.New(5)
		for i := 0; i < 10; i++ {
			w.ExecBatch(randomBatch(w, r, 6))
		}
		return worldFingerprint(w)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("repeat runs diverged:\n%s\nvs\n%s", a, b)
	}
}

// TestBatchConflictingLeavesDefer: two departures from the same cluster
// have overlapping footprints; exactly the later one must fall to the
// serial tail, and both must still succeed.
func TestBatchConflictingLeavesDefer(t *testing.T) {
	w := newTestWorld(t, 77)
	var c ids.ClusterID
	for _, cand := range w.Clusters() {
		if w.Size(cand) >= w.cfg.MergeThreshold()+2 {
			c = cand
			break
		}
	}
	ms := w.Members(c)
	res := w.ExecBatch([]Op{
		{Kind: OpLeave, Victim: ms[0]},
		{Kind: OpLeave, Victim: ms[1]},
	})
	if res[0].Err != nil || res[1].Err != nil {
		t.Fatalf("conflicting leaves failed: %v / %v", res[0].Err, res[1].Err)
	}
	if !res[1].Deferred {
		t.Fatal("second leave from the same cluster was not deferred")
	}
	if res[1].DeferReason != "footprint conflict" {
		t.Fatalf("defer reason %q, want footprint conflict", res[1].DeferReason)
	}
	if w.Contains(ms[0]) || w.Contains(ms[1]) {
		t.Fatal("victims still present after batch")
	}
	if err := CheckInvariants(w); err != nil {
		t.Fatal(err)
	}
}

// TestBatchDuplicateVictimErrors: the same victim twice in one batch is a
// conflict; the deferred duplicate must fail with ErrUnknownNode (the node
// is already gone), deterministically.
func TestBatchDuplicateVictimErrors(t *testing.T) {
	w := newTestWorld(t, 3)
	x, _ := w.RandomNode(xrand.New(1))
	res := w.ExecBatch([]Op{
		{Kind: OpLeave, Victim: x},
		{Kind: OpLeave, Victim: x},
	})
	if res[0].Err != nil {
		t.Fatalf("first leave failed: %v", res[0].Err)
	}
	if !IsUnknownNode(res[1].Err) {
		t.Fatalf("duplicate leave error = %v, want ErrUnknownNode", res[1].Err)
	}
	if err := CheckInvariants(w); err != nil {
		t.Fatal(err)
	}
}

// TestBatchSplitRunsOnTail: force a join that must split by shrinking the
// world to few clusters and stuffing one near the threshold via direct
// joins, then confirm the batch defers it and the split actually happens.
func TestBatchSplitRunsOnTail(t *testing.T) {
	w := newTestWorld(t, 9)
	r := xrand.New(2)
	splitBatchHadDeferral := false
	for i := 0; i < 80 && w.Stats().Splits == 0; i++ {
		ops := make([]Op, 6)
		for j := range ops {
			ops[j] = Op{Kind: OpJoin, Byz: r.Bool(0.1)}
		}
		before := w.Stats().Splits
		res := w.ExecBatch(ops)
		deferred := false
		for j, rr := range res {
			if rr.Err != nil {
				t.Fatalf("join %d/%d failed: %v", i, j, rr.Err)
			}
			deferred = deferred || rr.Deferred
		}
		if w.Stats().Splits > before && !deferred {
			t.Fatal("a split happened in a batch with no deferred op: structural work escaped the tail")
		}
		if w.Stats().Splits > before {
			splitBatchHadDeferral = true
		}
		if err := CheckInvariants(w); err != nil {
			t.Fatalf("invariants after batch %d: %v", i, err)
		}
	}
	if w.Stats().Splits == 0 {
		t.Fatal("growth produced no splits")
	}
	if !splitBatchHadDeferral {
		t.Fatal("split batch was not observed")
	}
}

// TestClassicAndBatchedInterleave: mixing the classic API and ExecBatch on
// one world stays deterministic and invariant-preserving.
func TestClassicAndBatchedInterleave(t *testing.T) {
	run := func() string {
		w := newTestWorld(t, 21)
		r := xrand.New(4)
		for i := 0; i < 6; i++ {
			if _, err := w.JoinAuto(false); err != nil {
				t.Fatal(err)
			}
			w.ExecBatch(randomBatch(w, r, 5))
			x, ok := w.RandomNode(r)
			if ok {
				if err := w.Leave(x); err != nil && !IsUnknownNode(err) {
					t.Fatal(err)
				}
			}
			if err := CheckInvariants(w); err != nil {
				t.Fatal(err)
			}
		}
		return worldFingerprint(w)
	}
	if a, b := run(), run(); a != b {
		t.Fatal("interleaved classic+batched execution is not deterministic")
	}
}
