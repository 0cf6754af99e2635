package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"time"

	"nowover"
	"nowover/internal/core"
	"nowover/internal/metrics"
	"nowover/internal/xrand"
)

// tau is the adversary's corruption budget in every simulator workload,
// as in the E4 and E6 sweep cells.
const tau = 0.15

// Seed salts separating the benchmark's own random streams from the
// world's.
const (
	inputSalt = 0x1b9a7c3d5e6f0821
	probeSalt = 0x2c8b6d4f7e5a1903
)

var churnSpec = &spec{
	name:    "churn",
	setup:   func(seed uint64) (workload, error) { return newChurn(seed) },
	latency: "step",
	window:  128,
	named: []namedLatency{
		{"join_p50_ms", "join", 0.50, "ms", 1e6},
		{"join_p99_ms", "join", 0.99, "ms", 1e6},
		{"leave_p50_ms", "leave", 0.50, "ms", 1e6},
		{"leave_p99_ms", "leave", 0.99, "ms", 1e6},
	},
	worlds:      8,
	chunk:       4,
	warmSteps:   32,
	digestSteps: 64,
	probeEvery:  1,
}

var sampleSpec = &spec{
	name:    "sample",
	setup:   func(seed uint64) (workload, error) { return newSample(seed) },
	latency: "sample",
	window:  1 << 16,
	named: []namedLatency{
		{"sample_p50_us", "sample", 0.50, "us", 1e3},
		{"sample_p99_us", "sample", 0.99, "us", 1e3},
	},
	worlds:      8,
	chunk:       1024,
	warmSteps:   8192,
	digestSteps: 8192,
	probeEvery:  8,
}

var batchedSpec = &spec{
	name:    "batched",
	setup:   func(seed uint64) (workload, error) { return newBatched(seed) },
	latency: "batch",
	window:  32,
	named: []namedLatency{
		{"batch_p50_ms", "batch", 0.50, "ms", 1e6},
		{"batch_p90_ms", "batch", 0.90, "ms", 1e6},
	},
	// A world gets dearer as it ages (its batches cost 10-15% more after
	// 300 than over the first 40), so a run that ran faster would measure
	// older worlds. Every world runs 32 batches, one latency window, and
	// the next is built from a fresh seed; the builds warm the code, so
	// there is no warm-up.
	episode:     32,
	digestSteps: 40,
	probeEvery:  1,
}

// simBase is a bootstrapped world plus the benchmark's input stream
// (Byzantine joiner coins, leave victims) and the walk probe.
type simBase struct {
	sys    *nowover.System
	rng    *xrand.Rand
	stats0 nowover.Stats
	ops    int64 // protocol operations run, for the per-op core counters
	walk   walkProbe
}

// newSimBase builds a world at name-space bound n and bootstraps n/2
// nodes, a tau fraction of them Byzantine.
func newSimBase(seed uint64, n int) (simBase, error) {
	cfg := nowover.DefaultConfig(n)
	cfg.Seed = seed
	sys, err := nowover.New(cfg)
	if err != nil {
		return simBase{}, err
	}
	n0 := n / 2
	if err := sys.Bootstrap(n0, nowover.FractionCorrupt(n0, tau)); err != nil {
		return simBase{}, err
	}
	return simBase{
		sys:    sys,
		rng:    xrand.New(seed ^ inputSalt),
		stats0: sys.Stats(),
		walk:   walkProbe{rng: xrand.New(seed ^ probeSalt)},
	}, nil
}

// byzCoin decides whether a joiner is Byzantine: with probability tau,
// while the adversary stays within its tau budget after byz corrupt
// nodes among n.
func (b *simBase) byzCoin(byz, n int) bool {
	return b.rng.Bool(tau) && float64(byz+1) <= tau*float64(n+1)
}

func (b *simBase) digest() string {
	a, st, cost := b.sys.Audit(), b.sys.Stats(), b.sys.TotalCost()
	h := sha256.New()
	fmt.Fprintf(h, "audit %+v\nstats %+v\nmsgs %d rounds %d\n", a, st, cost.Messages, cost.Rounds)
	for c := 0; c < nowover.NumTrafficClasses; c++ {
		cl := nowover.TrafficClass(c)
		fmt.Fprintf(h, "%v %d\n", cl, cost.ByClass[cl])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (b *simBase) check() error { return b.sys.CheckInvariants() }

func (b *simBase) close() {}

// layers reports the walk probe and the core counters per operation.
func (b *simBase) layers(m map[string]float64) {
	b.walk.report(m)
	st := b.sys.Stats()
	ops := float64(b.ops)
	m["core.swaps_per_op"] = ratio(float64(st.Swaps-b.stats0.Swaps), ops)
	m["core.splits_per_kop"] = 1000 * ratio(float64(st.Splits-b.stats0.Splits), ops)
	m["core.merges_per_kop"] = 1000 * ratio(float64(st.Merges-b.stats0.Merges), ops)
}

// walkProbe times Walker.Biased calls from uniform start clusters on a
// private stream, charging a scratch ledger, so the world's trajectory
// is untouched.
type walkProbe struct {
	rng                             *xrand.Rand
	led                             metrics.Ledger
	walks, segments, accepted, hops int64
	dur                             time.Duration
}

func (p *walkProbe) run(r *recorder, w *core.World) error {
	start, ok := w.RandomCluster(p.rng)
	if !ok {
		return errors.New("walk probe: no clusters")
	}
	sp := r.begin("walk.Walker.Biased")
	t0 := time.Now()
	out, err := w.Walker().Biased(&p.led, p.rng, start)
	d := time.Since(t0)
	r.end(sp)
	if err != nil {
		return fmt.Errorf("walk probe: %w", err)
	}
	p.walks++
	p.dur += d
	p.hops += int64(out.Hops)
	// Biased returns with Restarts < MaxWalkRestarts after the segment
	// that accepted (or was hijacked), and with Restarts equal to the cap
	// when every segment was rejected.
	if max := w.Config().MaxWalkRestarts; out.Restarts >= max {
		p.segments += int64(max)
	} else {
		p.segments += int64(out.Restarts) + 1
		if !out.Hijacked {
			p.accepted++
		}
	}
	return nil
}

func (p *walkProbe) report(m map[string]float64) {
	walks := float64(p.walks)
	m["walk.biased_us"] = ratio(float64(p.dur.Microseconds()), walks)
	m["walk.ns_per_hop"] = ratio(float64(p.dur.Nanoseconds()), float64(p.hops))
	m["walk.hops_per_walk"] = ratio(float64(p.hops), walks)
	m["walk.segments_per_walk"] = ratio(float64(p.segments), walks)
	m["walk.accept_ratio"] = ratio(float64(p.accepted), float64(p.segments))
}

// churn alternates JoinAuto and Leave of a uniform victim on the classic
// one-op-per-call path at N=2^13 — the E6 cell and nowsim's path.
type churn struct {
	simBase
	join, leave costAcc
}

func newChurn(seed uint64) (*churn, error) {
	b, err := newSimBase(seed, 1<<13)
	if err != nil {
		return nil, err
	}
	return &churn{simBase: b}, nil
}

func (c *churn) step(r *recorder) error {
	w := c.sys.World()
	led := w.Ledger()
	root := r.begin("churn.step")
	defer r.end(root)

	byz := c.byzCoin(w.NumByzantine(), w.NumNodes())
	snap := led.Snapshot()
	sp := r.begin("nowover.System.JoinAuto")
	t0 := time.Now()
	_, joinErr := c.sys.JoinAuto(byz)
	dj := time.Since(t0)
	r.end(sp)
	c.ops++
	if joinErr != nil {
		r.fail(1)
	} else {
		c.join.add(led.SinceVec(snap))
		r.add("join", dj)
	}

	victim, ok := w.RandomNode(c.rng)
	if !ok {
		return errors.New("no node to leave")
	}
	snap = led.Snapshot()
	sp = r.begin("nowover.System.Leave")
	t1 := time.Now()
	leaveErr := c.sys.Leave(victim)
	dl := time.Since(t1)
	r.end(sp)
	c.ops++
	if leaveErr != nil {
		r.fail(1)
	} else {
		c.leave.add(led.SinceVec(snap))
		r.add("leave", dl)
	}
	switch {
	case joinErr == nil && leaveErr == nil:
		r.step("step", dj+dl, 2)
	case joinErr == nil || leaveErr == nil:
		r.complete(1)
	}
	return nil
}

func (c *churn) probe(r *recorder) error { return c.walk.run(r, c.sys.World()) }

func (c *churn) layers(m map[string]float64) {
	c.simBase.layers(m)
	c.join.report(m, "join")
	c.leave.report(m, "leave")
}

// costAcc sums per-operation ledger deltas of one operation kind.
type costAcc struct {
	n      int64
	msgs   [metrics.NumClasses]int64
	rounds int64
}

func (a *costAcc) add(v metrics.CostVec) {
	a.n++
	for i := range a.msgs {
		a.msgs[i] += v.ByClass[i]
	}
	a.rounds += v.Rounds
}

// ledgerClasses are the traffic classes reported per operation kind.
var ledgerClasses = []struct {
	name  string
	class metrics.Class
}{
	{"walk", metrics.ClassWalk},
	{"randnum", metrics.ClassRandNum},
	{"exchange", metrics.ClassExchange},
	{"cascade", metrics.ClassCascade},
	{"intra", metrics.ClassIntraCluster},
	{"inter", metrics.ClassInterCluster},
}

func (a *costAcc) report(m map[string]float64, kind string) {
	n := float64(a.n)
	for _, c := range ledgerClasses {
		m["ledger."+kind+"."+c.name+"_msgs"] = ratio(float64(a.msgs[c.class]), n)
	}
	m["ledger."+kind+".rounds"] = ratio(float64(a.rounds), n)
}

// sample draws read-only randCl samples on a bootstrapped world at
// N=2^14, as the E4 cells do.
type sample struct {
	simBase
}

func newSample(seed uint64) (*sample, error) {
	b, err := newSimBase(seed, 1<<14)
	if err != nil {
		return nil, err
	}
	return &sample{simBase: b}, nil
}

func (s *sample) step(r *recorder) error {
	root := r.begin("sample.step")
	defer r.end(root)
	sp := r.begin("nowover.System.Sample")
	t0 := time.Now()
	rep, err := s.sys.Sample()
	d := time.Since(t0)
	r.end(sp)
	if err != nil {
		r.fail(1)
		return nil
	}
	c, ok := s.sys.ClusterOf(rep.Node)
	if !ok || c != rep.Cluster {
		return fmt.Errorf("sampled node %v is not a live member of its reported cluster %v", rep.Node, rep.Cluster)
	}
	r.step("sample", d, 1)
	return nil
}

func (s *sample) probe(r *recorder) error { return s.walk.run(r, s.sys.World()) }

// batchSize is the number of operations per ExecBatch call.
const batchSize = 8

// batched submits the churn mix as 8-op ExecBatch calls at N=2^12: the
// only workload that drives the op scheduler.
type batched struct {
	simBase
	ops      []nowover.WorldOp
	victims  map[nowover.NodeID]bool
	total    int64
	deferred int64
	skipped  int64
	reasons  map[string]int64
}

func newBatched(seed uint64) (*batched, error) {
	b, err := newSimBase(seed, 1<<12)
	if err != nil {
		return nil, err
	}
	return &batched{
		simBase: b,
		victims: make(map[nowover.NodeID]bool),
		reasons: make(map[string]int64),
	}, nil
}

// Defer reasons reported by the scheduler, by metric name.
var deferReasons = []struct{ metric, reason string }{
	{"sched.defer.footprint_frac", "footprint conflict"},
	{"sched.defer.split_frac", "split required"},
	{"sched.defer.merge_frac", "merge required"},
	{"sched.defer.emptied_frac", "cluster emptied"},
}

func (b *batched) step(r *recorder) error {
	w := b.sys.World()
	// Joins and leaves alternate. Victims are distinct live nodes of the
	// pre-batch state; the Byzantine budget is projected through the
	// batch.
	byz, n := w.NumByzantine(), w.NumNodes()
	b.ops = b.ops[:0]
	clear(b.victims)
	for i := 0; i < batchSize; i++ {
		if i%2 == 0 {
			isByz := b.byzCoin(byz, n)
			if isByz {
				byz++
			}
			n++
			b.ops = append(b.ops, nowover.WorldOp{Kind: nowover.WorldOpJoin, Byz: isByz})
			continue
		}
		victim, ok := w.RandomNode(b.rng)
		for ok && b.victims[victim] {
			victim, ok = w.RandomNode(b.rng)
		}
		if !ok {
			return errors.New("no node to leave")
		}
		b.victims[victim] = true
		if w.IsByzantine(victim) {
			byz--
		}
		n--
		b.ops = append(b.ops, nowover.WorldOp{Kind: nowover.WorldOpLeave, Victim: victim})
	}

	root := r.begin("batch.step")
	defer r.end(root)
	sp := r.begin("nowover.System.ExecBatch")
	t0 := time.Now()
	res := b.sys.ExecBatch(b.ops)
	d := time.Since(t0)
	r.end(sp)

	completed, failed := 0, 0
	for i, rr := range res {
		b.total++
		b.simBase.ops++
		if rr.Deferred {
			b.deferred++
			b.reasons[rr.DeferReason]++
		}
		if rr.Err == nil {
			completed++
			continue
		}
		// A victim or contact cluster may vanish mid-batch when an earlier
		// tail operation restructures its cluster: the op is skipped.
		if !core.IsUnknownNode(rr.Err) && !core.IsUnknownCluster(rr.Err) {
			return fmt.Errorf("batch op %d (%v): %w", i, b.ops[i].Kind, rr.Err)
		}
		b.skipped++
		failed++
	}
	r.fail(failed)
	if completed > 0 {
		r.step("batch", d, completed)
	}
	return nil
}

// probe runs four walks per batch, so a traced pass of a few hundred
// batches still times about a thousand of them.
func (b *batched) probe(r *recorder) error {
	for i := 0; i < 4; i++ {
		if err := b.walk.run(r, b.sys.World()); err != nil {
			return err
		}
	}
	return nil
}

func (b *batched) layers(m map[string]float64) {
	b.simBase.layers(m)
	total := float64(b.total)
	m["sched.deferred_frac"] = ratio(float64(b.deferred), total)
	m["sched.skipped_frac"] = ratio(float64(b.skipped), total)
	for _, d := range deferReasons {
		m[d.metric] = ratio(float64(b.reasons[d.reason]), total)
	}
}
