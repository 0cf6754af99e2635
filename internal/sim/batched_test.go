package sim

import (
	"testing"

	"nowover/internal/adversary"
	"nowover/internal/core"
	"nowover/internal/workload"
)

func batchedConfig(opsPerStep int, seed uint64) Config {
	cfg := Config{
		Core:        core.DefaultConfig(2048),
		InitialSize: 512,
		Tau:         0.15,
		Steps:       60,
		Seed:        seed,
		OpsPerStep:  opsPerStep,
	}
	cfg.Core.Seed = seed
	return cfg
}

func TestBatchedDriverRuns(t *testing.T) {
	cfg := batchedConfig(8, 1)
	if testing.Short() {
		cfg.Core = core.DefaultConfig(1024)
		cfg.Core.Seed = 1
		cfg.InitialSize = 256
		cfg.Steps = 25
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != cfg.Steps {
		t.Fatalf("ran %d steps, want %d", res.Steps, cfg.Steps)
	}
	if res.BatchedOps == 0 {
		t.Fatal("batched driver issued no batched ops")
	}
	if res.Stats.Joins == 0 || res.Stats.Leaves == 0 {
		t.Fatalf("no churn recorded: %+v", res.Stats)
	}
	if err := core.CheckInvariants(r.World()); err != nil {
		t.Fatal(err)
	}
}

// TestBatchedDriverRepeatable: the whole simulation — strategy decisions,
// scheduler batches, audits — is deterministic in the seeds: two runs of
// the same configuration agree on every result counter.
func TestBatchedDriverRepeatable(t *testing.T) {
	if testing.Short() {
		t.Skip("repeated batched run skipped in -short mode (covered at small scale by core's TestBatchRepeatableAcrossRuns)")
	}
	run := func() *Result {
		r, err := New(batchedConfig(8, 7))
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		if err := core.CheckInvariants(r.World()); err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Stats != b.Stats {
		t.Fatalf("stats diverged across runs:\n%+v\nvs\n%+v", a.Stats, b.Stats)
	}
	if a.Final != b.Final {
		t.Fatalf("final audit diverged:\n%+v\nvs\n%+v", a.Final, b.Final)
	}
	if a.TotalCost.Messages != b.TotalCost.Messages || a.TotalCost.Rounds != b.TotalCost.Rounds {
		t.Fatalf("cost diverged: %v vs %v", a.TotalCost, b.TotalCost)
	}
	if a.BatchedOps != b.BatchedOps || a.DeferredOps != b.DeferredOps || a.SkippedOps != b.SkippedOps {
		t.Fatalf("scheduler counters diverged: %d/%d/%d vs %d/%d/%d",
			a.BatchedOps, a.DeferredOps, a.SkippedOps, b.BatchedOps, b.DeferredOps, b.SkippedOps)
	}
}

func TestBatchedValidation(t *testing.T) {
	cfg := batchedConfig(-1, 1)
	if _, err := New(cfg); err == nil {
		t.Fatal("negative OpsPerStep accepted")
	}
	cfg = batchedConfig(4, 1)
	cfg.InstallHijacker = true
	cfg.Strategy = &adversary.JoinLeaveAttack{Budget: adversary.Budget{Tau: 0.15}}
	r, err := New(cfg)
	if err != nil {
		t.Fatalf("OpsPerStep>1 with InstallHijacker rejected: %v", err)
	}
	if r.Hijacker() == nil {
		t.Fatal("hijacker requested but not installed on the batched driver")
	}
	cfg.InstallHijacker = false
	if _, err := New(cfg); err != nil {
		t.Fatalf("attack strategy without hijacker rejected: %v", err)
	}
}

// TestBatchedHookedRepeatable pins the hook contract at the driver level:
// a fully hooked world — hijacker redirecting walks AND the same hook
// object steering randCl draws — batched through the scheduler is
// byte-identical across two same-seed runs, down to the hijack tallies the
// commit step folds in op order, and the commit fold accounts for every
// hijacked walk.
func TestBatchedHookedRepeatable(t *testing.T) {
	run := func() (*Result, *adversary.CapturedHijacker) {
		cfg := batchedConfig(8, 11)
		if testing.Short() {
			cfg.Core = core.DefaultConfig(1024)
			cfg.Core.Seed = 11
			cfg.InitialSize = 256
			cfg.Steps = 30
		}
		cfg.Strategy = &adversary.JoinLeaveAttack{Budget: adversary.Budget{Tau: 0.15}}
		cfg.InstallHijacker = true
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := r.Hijacker()
		if h == nil {
			t.Fatal("no hijacker installed")
		}
		r.World().SetSteerHook(h)
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		if err := core.CheckInvariants(r.World()); err != nil {
			t.Fatal(err)
		}
		return res, h
	}
	a, ha := run()
	b, hb := run()
	if a.Stats != b.Stats {
		t.Fatalf("stats diverged across runs:\n%+v\nvs\n%+v", a.Stats, b.Stats)
	}
	if a.Stats.HijackedWalks == 0 {
		t.Fatal("hooked run hijacked no walks: the redirect path never ran")
	}
	if a.Final != b.Final {
		t.Fatalf("final audit diverged:\n%+v\nvs\n%+v", a.Final, b.Final)
	}
	if ha.Hijacked != hb.Hijacked || ha.CommittedOps != hb.CommittedOps {
		t.Fatalf("hook bookkeeping diverged: hijacked %d/%d ops %d/%d",
			ha.Hijacked, hb.Hijacked, ha.CommittedOps, hb.CommittedOps)
	}
	if ha.Hijacked != a.Stats.HijackedWalks {
		t.Fatalf("commit fold lost walks: hook saw %d, world recorded %d",
			ha.Hijacked, a.Stats.HijackedWalks)
	}
	if a.BatchedOps != b.BatchedOps || a.DeferredOps != b.DeferredOps || a.SkippedOps != b.SkippedOps {
		t.Fatalf("scheduler counters diverged: %d/%d/%d vs %d/%d/%d",
			a.BatchedOps, a.DeferredOps, a.SkippedOps, b.BatchedOps, b.DeferredOps, b.SkippedOps)
	}
}

func TestBatchedGrowShrink(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-phase batched run skipped in -short mode")
	}
	cfg := batchedConfig(6, 3)
	cfg.Steps = 80
	cfg.Schedule = workload.Linear{From: 512, To: 1400, Steps: 80}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	grown := r.World().NumNodes()
	if grown <= 512 {
		t.Fatalf("population %d did not grow", grown)
	}
	if res.Stats.Splits == 0 {
		t.Fatal("growth produced no splits (structural tail never ran)")
	}
	if err := core.CheckInvariants(r.World()); err != nil {
		t.Fatal(err)
	}
	res2, err := r.Continue(workload.Linear{From: grown, To: 512, Steps: 80}, 80)
	if err != nil {
		t.Fatal(err)
	}
	if r.World().NumNodes() >= grown {
		t.Fatalf("population %d did not shrink from %d", r.World().NumNodes(), grown)
	}
	if res2.Stats.Merges == 0 {
		t.Fatal("shrink produced no merges")
	}
	if err := core.CheckInvariants(r.World()); err != nil {
		t.Fatal(err)
	}
}

func TestBatchedRejoinAllDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("rejoin-all batched shrink skipped in -short mode")
	}
	cfg := batchedConfig(6, 9)
	cfg.Core.MergeStrategy = core.MergeRejoinAll
	cfg.Steps = 120
	cfg.Schedule = workload.Linear{From: 512, To: 200, Steps: 100}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Merges == 0 {
		t.Fatal("rejoin-all shrink produced no merges")
	}
	if res.Stats.Rejoins == 0 {
		t.Fatal("merges displaced nodes but none rejoined")
	}
	if err := core.CheckInvariants(r.World()); err != nil {
		t.Fatal(err)
	}
}

// TestBatchedAttackStrategySurvivesMerges is the regression for the
// vanished-contact hazard: JoinLeaveAttack emits HasContact joins at a
// fixated target cluster, and under shrink pressure an earlier deferred
// leave can merge that exact cluster away on the scheduler's tail before
// the join runs. The driver must skip such ops (ErrUnknownCluster /
// ErrUnknownNode), not abort the run.
func TestBatchedAttackStrategySurvivesMerges(t *testing.T) {
	if testing.Short() {
		t.Skip("attack-strategy batched shrink skipped in -short mode")
	}
	cfg := batchedConfig(8, 5)
	cfg.Strategy = &adversary.JoinLeaveAttack{Budget: adversary.Budget{Tau: 0.15}}
	cfg.Steps = 120
	cfg.Schedule = workload.Linear{From: 512, To: 200, Steps: 100}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Merges == 0 {
		t.Fatal("shrink produced no merges: the hazard path never ran")
	}
	if err := core.CheckInvariants(r.World()); err != nil {
		t.Fatal(err)
	}
}
