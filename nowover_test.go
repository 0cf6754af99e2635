package nowover_test

import (
	"strings"
	"testing"

	"nowover"
)

func system(t *testing.T) *nowover.System {
	t.Helper()
	cfg := nowover.DefaultConfig(1024)
	cfg.Seed = 99
	sys, err := nowover.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Bootstrap(400, nowover.FractionCorrupt(400, 0.20)); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestQuickstartFlow(t *testing.T) {
	sys := system(t)
	if sys.NumNodes() != 400 {
		t.Fatalf("nodes = %d", sys.NumNodes())
	}
	x, err := sys.JoinAuto(false)
	if err != nil {
		t.Fatal(err)
	}
	c, ok := sys.ClusterOf(x)
	if !ok {
		t.Fatal("joined node unplaced")
	}
	found := false
	for _, m := range sys.Members(c) {
		if m == x {
			found = true
		}
	}
	if !found {
		t.Error("node not in its cluster's member list")
	}
	if err := sys.Leave(x); err != nil {
		t.Fatal(err)
	}
	a := sys.Audit()
	if a.Captured != 0 {
		t.Errorf("captured clusters at bootstrap+2 ops: %+v", a)
	}
	if !a.OverlayConnected {
		t.Error("overlay disconnected")
	}
	if sys.TotalCost().Messages == 0 {
		t.Error("no cost accounted")
	}
	s := sys.Stats()
	if s.Joins != 1 || s.Leaves != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestFractionCorrupt(t *testing.T) {
	f := nowover.FractionCorrupt(100, 0.25)
	count := 0
	for i := 0; i < 100; i++ {
		if f(i) {
			count++
		}
	}
	if count != 25 {
		t.Errorf("corrupted %d of 100, want 25", count)
	}
}

func TestApplicationServices(t *testing.T) {
	sys := system(t)
	src := sys.Clusters()[0]

	bc, err := sys.Broadcast(src)
	if err != nil {
		t.Fatal(err)
	}
	if bc.NodesReached != sys.NumNodes() {
		t.Errorf("broadcast reached %d of %d", bc.NodesReached, sys.NumNodes())
	}

	sample, err := sys.Sample()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sys.ClusterOf(sample.Node); !ok {
		t.Error("sampled node not in network")
	}

	agg, err := sys.Aggregate(src, func(nowover.ClusterID, int) int64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	if agg.Value != int64(sys.NumNodes()) {
		t.Errorf("aggregate = %d, want %d", agg.Value, sys.NumNodes())
	}

	dec, err := sys.Agree(src, func(nowover.ClusterID) int64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	if dec.Decision != 1 {
		t.Errorf("decision = %d", dec.Decision)
	}
}

func TestSimulateFacade(t *testing.T) {
	cfg := nowover.SimConfig{
		Core:        nowover.DefaultConfig(1024),
		InitialSize: 300,
		Tau:         0.15,
		Steps:       50,
		Seed:        7,
	}
	cfg.Core.Seed = 7
	res, err := nowover.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 50 {
		t.Errorf("steps = %d", res.Steps)
	}
}

func TestSimulationContinue(t *testing.T) {
	cfg := nowover.SimConfig{
		Core:        nowover.DefaultConfig(1024),
		InitialSize: 300,
		Tau:         0.1,
		Steps:       30,
		Seed:        8,
	}
	cfg.Core.Seed = 8
	runner, err := nowover.NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runner.Run(); err != nil {
		t.Fatal(err)
	}
	res, err := runner.Continue(nowover.Linear{From: 300, To: 360, Steps: 80}, 80)
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.Nodes < 350 {
		t.Errorf("continued run reached %d nodes", res.Final.Nodes)
	}
}

func TestExperimentRegistryExposed(t *testing.T) {
	reg := nowover.Experiments()
	ids := nowover.ExperimentIDs()
	if len(reg) == 0 || len(ids) != len(reg) {
		t.Fatalf("registry %d vs ids %d", len(reg), len(ids))
	}
	if _, ok := reg["E1"]; !ok {
		t.Error("E1 missing")
	}
	if len(nowover.QuickScale().Ns) == 0 || len(nowover.FullScale().Ns) == 0 {
		t.Error("scales empty")
	}
}

// TestRunExperimentsCascadeModeIsolated: the leave-cascade mode travels
// in the scale, not in process state, so a grouped RunExperiments call
// followed by a default one in the same process must each render exactly
// what a fresh single run of that mode renders — nothing leaks from one
// call into the next.
func TestRunExperimentsCascadeModeIsolated(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs skipped in -short mode")
	}
	ids := []string{"E2", "E6"}
	scale := func(grouped bool) nowover.ExperimentScale {
		return nowover.ExperimentScale{Ns: []int{256}, OpsFactor: 0.25, Trials: 1, Walks: 60, Seed: 3,
			GroupedCascade: grouped}
	}
	render := func(tables []*nowover.ExperimentTable) string {
		var b strings.Builder
		for _, tb := range tables {
			if err := tb.Render(&b); err != nil {
				t.Fatal(err)
			}
		}
		return b.String()
	}
	run := func(grouped bool) string {
		tables, err := nowover.RunExperiments(ids, scale(grouped))
		if err != nil {
			t.Fatal(err)
		}
		return render(tables)
	}
	single := func(grouped bool) string {
		var tables []*nowover.ExperimentTable
		for _, id := range ids {
			tb, err := nowover.Experiments()[id](scale(grouped))
			if err != nil {
				t.Fatal(err)
			}
			tables = append(tables, tb)
		}
		return render(tables)
	}
	grouped := run(true)
	def := run(false)
	if grouped == def {
		t.Fatal("grouped and default cascade tables are identical: the scale's cascade mode was not applied")
	}
	if want := single(false); def != want {
		t.Errorf("default run after a grouped run differs from a single default run:\n%s\nvs\n%s", def, want)
	}
	if want := single(true); grouped != want {
		t.Errorf("grouped run differs from a single grouped run:\n%s\nvs\n%s", grouped, want)
	}
}

func TestOverlayHealthExposed(t *testing.T) {
	sys := system(t)
	h := sys.CheckOverlay()
	if !h.Connected || h.MaxDegree == 0 {
		t.Errorf("health = %+v", h)
	}
}

func TestAdvancedWorldAccess(t *testing.T) {
	sys := system(t)
	w := sys.World()
	c := sys.Clusters()[0]
	if err := w.ForceExchange(c); err != nil {
		t.Fatal(err)
	}
	if err := w.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestExecBatchFacade(t *testing.T) {
	sys, err := nowover.New(nowover.DefaultConfig(512))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Bootstrap(200, nowover.FractionCorrupt(200, 0.2)); err != nil {
		t.Fatal(err)
	}
	before := sys.NumNodes()
	res := sys.ExecBatch([]nowover.WorldOp{
		{Kind: nowover.WorldOpJoin},
		{Kind: nowover.WorldOpJoin, Byz: true},
	})
	for i, rr := range res {
		if rr.Err != nil {
			t.Fatalf("batch op %d: %v", i, rr.Err)
		}
	}
	if sys.NumNodes() != before+2 {
		t.Fatalf("population %d after 2 joins, want %d", sys.NumNodes(), before+2)
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Leave(res[0].Node); err != nil {
		t.Fatal(err)
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
