package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"nowover/internal/adversary"
)

// FuzzWorldOps feeds fuzzer-chosen operation scripts through FOUR worlds:
// two same-seed worlds in each of the two cascade modes (per-receiver and
// grouped). After every scheduler batch it asserts that (a) the full
// invariant layer holds in all four and (b) each same-seed pair is in
// bit-identical protocol state, so any nondeterminism (a map-iteration
// order reaching an output, a draw from the wrong stream) surfaces under
// adversarial scripts. The two modes legitimately diverge from EACH
// OTHER (grouping changes which swaps happen), so cross-mode equality is
// not asserted; an op that targets a node/cluster present only in one
// mode's state is tolerated per pair as long as the pair agrees. The
// script drives joins, leaves, forced exchanges and allegiance flips;
// splits, merges and transfers are exercised through the operations that
// trigger them, including on the scheduler's tail (see
// seed-cascade-into-merge).
//
// Script encoding (one byte per instruction, wrapping reads for params):
//
//	b%6 == 0,1  queue a join (Byzantine iff b&0x40)
//	b%6 == 2    queue a leave of the (next byte)-indexed node
//	b%6 == 3    queue an exchange of the (next byte)-indexed cluster
//	b%6 == 4    flush the queued batch through ExecBatch
//	b%6 == 5    classic SetCorrupted flip of the (next byte)-indexed node
func FuzzWorldOps(f *testing.F) {
	f.Add(uint64(1), []byte{0, 0, 4, 2, 1, 4})
	f.Add(uint64(7), []byte{0, 2, 0, 3, 5, 4, 2, 2, 2, 3, 4})
	f.Add(uint64(42), []byte{2, 9, 2, 17, 2, 33, 4, 0, 0, 0, 0, 4, 5, 8, 4})
	f.Add(uint64(0xC0FFEE), []byte{3, 1, 3, 2, 4, 2, 250, 0, 64, 4, 2, 7, 2, 8, 2, 9, 4})
	f.Fuzz(func(t *testing.T, seed uint64, script []byte) {
		// 128 bytes is enough churn to force merges from the bootstrap
		// population (see seed-cascade-into-merge) while keeping one
		// input's four-world replay cheap.
		if len(script) > 128 {
			script = script[:128]
		}
		mk := func(grouped bool) *World {
			cfg := DefaultConfig(256)
			cfg.Seed = seed
			cfg.GroupedCascade = grouped
			w, err := NewWorld(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Bootstrap(96, func(slot int) bool { return slot%5 == 0 }); err != nil {
				t.Fatal(err)
			}
			return w
		}
		type lockstep struct {
			name string
			a, b *World
		}
		pairs := []lockstep{
			{"per-receiver", mk(false), mk(false)},
			{"grouped", mk(true), mk(true)},
		}
		w1 := pairs[0].a // the script's reference state
		minPop := 2 * w1.Config().TargetClusterSize()

		var pending []Op
		victims := make(map[uint64]bool)
		next := func(i *int) byte {
			if *i >= len(script) {
				return 0
			}
			b := script[*i]
			*i++
			return b
		}
		flush := func() {
			if len(pending) == 0 {
				return
			}
			for _, p := range pairs {
				ra := p.a.ExecBatch(pending)
				rb := p.b.ExecBatch(pending)
				for j := range ra {
					if ra[j].Err != nil && !IsUnknownNode(ra[j].Err) && !IsUnknownCluster(ra[j].Err) {
						t.Fatalf("%s op %d: %v", p.name, j, ra[j].Err)
					}
					if (ra[j].Err == nil) != (rb[j].Err == nil) || ra[j].Node != rb[j].Node || ra[j].Deferred != rb[j].Deferred {
						t.Fatalf("%s op %d diverged: %+v vs %+v", p.name, j, ra[j], rb[j])
					}
				}
				if err := CheckInvariants(p.a); err != nil {
					t.Fatalf("%s invariants: %v", p.name, err)
				}
				if err := CheckInvariants(p.b); err != nil {
					t.Fatalf("%s twin invariants: %v", p.name, err)
				}
				if a, b := worldFingerprint(p.a), worldFingerprint(p.b); a != b {
					t.Fatalf("%s states diverged:\n%s\nvs\n%s", p.name, a, b)
				}
			}
			pending = pending[:0]
			victims = make(map[uint64]bool)
		}

		projN := w1.NumNodes()
		for i := 0; i < len(script); {
			b := next(&i)
			switch b % 6 {
			case 0, 1:
				if projN >= w1.Config().N-1 || len(pending) >= 8 {
					continue
				}
				pending = append(pending, Op{Kind: OpJoin, Byz: b&0x40 != 0})
				projN++
			case 2:
				if projN <= minPop || len(pending) >= 8 || w1.NumNodes() == 0 {
					continue
				}
				idx := int(next(&i)) % w1.NumNodes()
				x := w1.allNodes[idx]
				if victims[uint64(x)] {
					continue
				}
				victims[uint64(x)] = true
				pending = append(pending, Op{Kind: OpLeave, Victim: x})
				projN--
			case 3:
				cs := w1.Clusters()
				if len(cs) == 0 || len(pending) >= 8 {
					continue
				}
				c := cs[int(next(&i))%len(cs)]
				pending = append(pending, Op{Kind: OpExchange, Target: c})
			case 4:
				flush()
			case 5:
				flush() // classic ops require a quiescent batch queue
				if w1.NumNodes() == 0 {
					continue
				}
				idx := int(next(&i)) % w1.NumNodes()
				x := w1.allNodes[idx]
				for _, p := range pairs {
					// The node may have already departed the other mode's
					// state (a leave that failed there); both worlds of a
					// pair agree, so the flip is applied or skipped
					// pair-consistently.
					if !p.a.Contains(x) {
						continue
					}
					corrupted := !p.a.IsByzantine(x)
					// Keep the tau regime: never corrupt past ~1/3.
					if corrupted && 3*(p.a.NumByzantine()+1) > p.a.NumNodes() {
						continue
					}
					if err := p.a.SetCorrupted(x, corrupted); err != nil {
						t.Fatal(err)
					}
					if err := p.b.SetCorrupted(x, corrupted); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		flush()
	})
}

// FuzzHookedWorldOps is the hooked sibling of FuzzWorldOps: the same
// script encoding drives two same-seed worlds that each carry a live
// JoinLeaveAttack fixation through a CapturedHijacker registered as BOTH
// walk hijacker and steer hook. The pair must stay in bit-identical
// protocol state after every batch, and
// the hooks' commit-folded bookkeeping (hijacked-walk tallies, committed
// op counts) must agree exactly, script after script. The bootstrap
// concentrates corruption in the low slots so captured clusters exist
// from the start and the fixation has something to bite on; seed bit 0
// selects the cascade mode so the corpus covers grouped and per-receiver
// tails. The two checked-in seeds (seed-tail-hijack-*) are verified by
// TestHookedFuzzSeedsExerciseTailHijack to drive hijacked walks through
// ops that land on the scheduler's tail — the replay path where hook
// purity is easiest to get wrong.
func FuzzHookedWorldOps(f *testing.F) {
	f.Add(uint64(1), []byte{0, 0, 4, 2, 1, 4})
	f.Add(uint64(7), []byte{0, 2, 0, 3, 5, 4, 2, 2, 2, 3, 4})
	f.Add(uint64(42), []byte{2, 9, 2, 17, 2, 33, 4, 0, 0, 0, 0, 4, 5, 8, 4})
	f.Fuzz(func(t *testing.T, seed uint64, script []byte) {
		runHookedScript(t, seed, script)
	})
}

// hookedScriptResult summarizes one hooked-script replay for the corpus
// verification test: whether any op both deferred to the tail AND
// hijacked at least one walk there.
type hookedScriptResult struct {
	tailHijacks int64
	hijacked    int64
}

func runHookedScript(t *testing.T, seed uint64, script []byte) hookedScriptResult {
	if len(script) > 128 {
		script = script[:128]
	}
	grouped := seed&1 == 1
	mk := func() (*World, *adversary.CapturedHijacker) {
		cfg := DefaultConfig(256)
		cfg.Seed = seed
		cfg.GroupedCascade = grouped
		w, err := NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Concentrated corruption: the low slots are all Byzantine, so the
		// bootstrap yields captured clusters for the attack to fixate on.
		if err := w.Bootstrap(96, func(slot int) bool { return slot < 24 }); err != nil {
			t.Fatal(err)
		}
		h := &adversary.CapturedHijacker{
			View:     w,
			Strategy: &adversary.JoinLeaveAttack{Budget: adversary.Budget{Tau: 0.25}},
		}
		w.SetHijacker(h)
		w.SetSteerHook(h)
		return w, h
	}
	w1, h1 := mk()
	w2, h2 := mk()
	minPop := 2 * w1.Config().TargetClusterSize()
	var out hookedScriptResult

	var pending []Op
	victims := make(map[uint64]bool)
	next := func(i *int) byte {
		if *i >= len(script) {
			return 0
		}
		b := script[*i]
		*i++
		return b
	}
	flush := func() {
		if len(pending) == 0 {
			return
		}
		r1 := w1.ExecBatch(pending)
		r2 := w2.ExecBatch(pending)
		for j := range r1 {
			if r1[j].Err != nil && !IsUnknownNode(r1[j].Err) && !IsUnknownCluster(r1[j].Err) {
				t.Fatalf("op %d: %v", j, r1[j].Err)
			}
			if (r1[j].Err == nil) != (r2[j].Err == nil) || r1[j].Node != r2[j].Node || r1[j].Deferred != r2[j].Deferred {
				t.Fatalf("op %d diverged: %+v vs %+v", j, r1[j], r2[j])
			}
			// w1.sched.hijacked holds the per-op tallies the commit step just
			// folded; a deferred op with a nonzero tally is a tail hijack.
			if r1[j].Deferred && w1.sched.hijacked[j] > 0 {
				out.tailHijacks += w1.sched.hijacked[j]
			}
		}
		if err := CheckInvariants(w1); err != nil {
			t.Fatalf("invariants: %v", err)
		}
		if err := CheckInvariants(w2); err != nil {
			t.Fatalf("twin invariants: %v", err)
		}
		if a, b := worldFingerprint(w1), worldFingerprint(w2); a != b {
			t.Fatalf("states diverged:\n%s\nvs\n%s", a, b)
		}
		if h1.Hijacked != h2.Hijacked || h1.CommittedOps != h2.CommittedOps {
			t.Fatalf("hook bookkeeping diverged: hijacked %d/%d ops %d/%d",
				h1.Hijacked, h2.Hijacked, h1.CommittedOps, h2.CommittedOps)
		}
		pending = pending[:0]
		victims = make(map[uint64]bool)
	}

	projN := w1.NumNodes()
	for i := 0; i < len(script); {
		b := next(&i)
		switch b % 6 {
		case 0, 1:
			if projN >= w1.Config().N-1 || len(pending) >= 8 {
				continue
			}
			pending = append(pending, Op{Kind: OpJoin, Byz: b&0x40 != 0})
			projN++
		case 2:
			if projN <= minPop || len(pending) >= 8 || w1.NumNodes() == 0 {
				continue
			}
			idx := int(next(&i)) % w1.NumNodes()
			x := w1.allNodes[idx]
			if victims[uint64(x)] {
				continue
			}
			victims[uint64(x)] = true
			pending = append(pending, Op{Kind: OpLeave, Victim: x})
			projN--
		case 3:
			cs := w1.Clusters()
			if len(cs) == 0 || len(pending) >= 8 {
				continue
			}
			c := cs[int(next(&i))%len(cs)]
			pending = append(pending, Op{Kind: OpExchange, Target: c})
		case 4:
			flush()
		case 5:
			flush() // classic ops require a quiescent batch queue
			if w1.NumNodes() == 0 {
				continue
			}
			idx := int(next(&i)) % w1.NumNodes()
			x := w1.allNodes[idx]
			if !w1.Contains(x) {
				continue
			}
			corrupted := !w1.IsByzantine(x)
			if corrupted && 3*(w1.NumByzantine()+1) > w1.NumNodes() {
				continue
			}
			if err := w1.SetCorrupted(x, corrupted); err != nil {
				t.Fatal(err)
			}
			if err := w2.SetCorrupted(x, corrupted); err != nil {
				t.Fatal(err)
			}
		}
	}
	flush()
	out.hijacked = h1.Hijacked
	return out
}

// readHookedCorpusSeed parses a checked-in Go fuzz corpus file for
// FuzzHookedWorldOps (format: "go test fuzz v1", then one line per
// argument in Go literal syntax).
func readHookedCorpusSeed(t *testing.T, name string) (uint64, []byte) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzHookedWorldOps", name))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 3 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: unexpected corpus layout: %q", name, lines)
	}
	var seed uint64
	if _, err := fmt.Sscanf(lines[1], "uint64(%d)", &seed); err != nil {
		t.Fatalf("%s: bad seed line %q: %v", name, lines[1], err)
	}
	quoted := strings.TrimSuffix(strings.TrimPrefix(lines[2], "[]byte("), ")")
	script, err := strconv.Unquote(quoted)
	if err != nil {
		t.Fatalf("%s: bad script line %q: %v", name, lines[2], err)
	}
	return seed, []byte(script)
}

// TestHookedFuzzSeedsExerciseTailHijack pins the reason the two
// seed-tail-hijack-* corpus entries are checked in: each must drive at
// least one op that BOTH falls to the scheduler's tail AND
// hijacks walks while replaying there — one per cascade mode. If a
// scheduler change stops these scripts from reaching the hooked tail,
// the corpus has silently lost its coverage and new seeds must be hunted
// (see the FuzzHookedWorldOps comment).
func TestHookedFuzzSeedsExerciseTailHijack(t *testing.T) {
	for _, tc := range []struct {
		name    string
		grouped bool
	}{
		{"seed-tail-hijack-per-receiver", false},
		{"seed-tail-hijack-grouped", true},
	} {
		seed, script := readHookedCorpusSeed(t, tc.name)
		if got := seed&1 == 1; got != tc.grouped {
			t.Errorf("%s: seed %d selects grouped=%v, want %v", tc.name, seed, got, tc.grouped)
		}
		res := runHookedScript(t, seed, script)
		if res.tailHijacks == 0 {
			t.Errorf("%s: no hijacked walk ever landed on the tail (hijacked=%d total)",
				tc.name, res.hijacked)
		}
	}
}
