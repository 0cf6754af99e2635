package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"runtime"

	"nowover/internal/xrand"
)

// workload is one instance of a workload, built from a seed by its spec.
type workload interface {
	// step runs one closed-loop step: it times its calls into the
	// program and reports them to the recorder. An error is a failed
	// correctness check or an unexpected failure, and ends the run.
	step(r *recorder) error
	// probe makes timed probe calls into single layers (traced passes
	// only). Probes must leave the workload's trajectory untouched; the
	// determinism digest checks that they do.
	probe(r *recorder) error
	// digest hashes the state the program's outputs determine.
	digest() string
	// check verifies the final state.
	check() error
	// layers writes the per-layer counters of the traced pass into m.
	layers(m map[string]float64)
	close()
}

// spec describes a workload.
type spec struct {
	name string
	// setup builds one fresh instance.
	setup func(seed uint64) (workload, error)
	// worlds, when above 1, is the number of instances a run drives, each
	// built from its own seed derived from the run's, in turns of chunk
	// steps: one world's shape then does not decide a run's figures.
	worlds, chunk int
	// episode, when positive, makes a run drive a sequence of fresh
	// instances, each for episode steps, built from seeds derived from the
	// run's: every run then measures instances of the same age, over many
	// shapes.
	episode int
	// latency is the series behind lat_p50_us and lat_p90_us, which are
	// medians over windows of window samples of it.
	latency string
	window  int
	// named are the workload-specific latency metrics of the run record.
	named []namedLatency
	// warmSteps run before the measured window.
	warmSteps int
	// digestSteps is the step count at which the digest is taken.
	digestSteps int
	// probeEvery is the number of steps between probes in a traced pass.
	probeEvery int
	// procs, when positive, is the GOMAXPROCS the workload runs at.
	procs int
}

// namedLatency is a quantile of a series, reported in unit (scale
// nanoseconds per unit).
type namedLatency struct {
	name   string
	series string
	q      float64
	unit   string
	scale  float64
}

// build makes what a run drives: one instance, the spec's worlds as one
// workload, or the first instance of its episodes. Its duration is
// setup_s.
func (s *spec) build(seed uint64) (workload, error) {
	if s.episode > 0 {
		e := &episodes{setup: s.setup, seed: seed, length: s.episode, retired: sha256.New(), sums: layerMetrics()}
		if err := e.next(); err != nil {
			return nil, err
		}
		return e, nil
	}
	if s.worlds <= 1 {
		return s.setup(seed)
	}
	m := &multi{chunk: s.chunk}
	for i := 0; i < s.worlds; i++ {
		w, err := s.setup(xrand.Derive(seed, uint64(i)).Uint64())
		if err != nil {
			m.close()
			return nil, err
		}
		m.ws = append(m.ws, w)
	}
	return m, nil
}

// multi drives several instances in turn, chunk steps each.
type multi struct {
	ws    []workload
	chunk int
	steps int
}

// current is the instance that runs (or ran) step i.
func (m *multi) current(i int) workload { return m.ws[i/m.chunk%len(m.ws)] }

func (m *multi) step(r *recorder) error {
	w := m.current(m.steps)
	m.steps++
	return w.step(r)
}

// probe probes the instance that ran the last step.
func (m *multi) probe(r *recorder) error { return m.current(m.steps - 1).probe(r) }

func (m *multi) digest() string {
	h := sha256.New()
	for _, w := range m.ws {
		io.WriteString(h, w.digest()+"\n")
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (m *multi) check() error {
	for _, w := range m.ws {
		if err := w.check(); err != nil {
			return err
		}
	}
	return nil
}

// layers averages the instances' per-layer metrics.
func (m *multi) layers(out map[string]float64) {
	for _, w := range m.ws {
		one := layerMetrics()
		w.layers(one)
		for k, v := range one {
			out[k] += v / float64(len(m.ws))
		}
	}
}

func (m *multi) close() {
	for _, w := range m.ws {
		w.close()
	}
}

// episodes drives fresh instances in turn, length steps each. An
// instance is checked, digested and has its per-layer metrics taken when
// it retires.
type episodes struct {
	setup   func(seed uint64) (workload, error)
	seed    uint64
	length  int
	cur     workload
	built   int // instances built, cur included
	steps   int // steps cur has run
	retired hash.Hash
	sums    map[string]float64 // per-layer metrics of retired instances
	alloc   runtime.MemStats   // heap allocation of the builds
}

// next builds the next instance, counting what its build allocates.
func (e *episodes) next() error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	w, err := e.setup(xrand.Derive(e.seed, uint64(e.built)).Uint64())
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	e.alloc.Mallocs += m1.Mallocs - m0.Mallocs
	e.alloc.TotalAlloc += m1.TotalAlloc - m0.TotalAlloc
	e.cur, e.steps = w, 0
	e.built++
	return nil
}

// step retires a finished instance before it runs the next one's first
// step, so a probe after a step probes the instance that ran it.
func (e *episodes) step(r *recorder) error {
	if e.steps == e.length {
		if err := e.retire(); err != nil {
			return err
		}
		if err := e.next(); err != nil {
			return err
		}
	}
	e.steps++
	return e.cur.step(r)
}

func (e *episodes) retire() error {
	if err := e.cur.check(); err != nil {
		return fmt.Errorf("instance %d: %w", e.built-1, err)
	}
	io.WriteString(e.retired, e.cur.digest()+"\n")
	one := layerMetrics()
	e.cur.layers(one)
	for k, v := range one {
		e.sums[k] += v
	}
	e.cur.close()
	return nil
}

func (e *episodes) probe(r *recorder) error { return e.cur.probe(r) }

func (e *episodes) digest() string {
	h := sha256.New()
	h.Write(e.retired.Sum(nil))
	io.WriteString(h, e.cur.digest())
	return hex.EncodeToString(h.Sum(nil))
}

func (e *episodes) check() error { return e.cur.check() }

// layers averages the per-layer metrics of every instance built.
func (e *episodes) layers(out map[string]float64) {
	one := layerMetrics()
	e.cur.layers(one)
	for k, v := range one {
		out[k] += (e.sums[k] + v) / float64(e.built)
	}
}

func (e *episodes) close() { e.cur.close() }

// buildAllocs returns what w has allocated building instances inside its
// steps, which the per-op allocation counts leave out.
func buildAllocs(w workload) runtime.MemStats {
	if e, ok := w.(*episodes); ok {
		return e.alloc
	}
	return runtime.MemStats{}
}

var specs = []*spec{churnSpec, sampleSpec, batchedSpec, rpcSpec}

func lookup(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return names
}

// perLayer lists every per-layer metric with its unit, in the order of
// BENCHMARK.json. A layer that a workload bypasses reports 0.
var perLayer = []struct{ name, unit string }{
	{"walk.biased_us", "us"},
	{"walk.ns_per_hop", "ns"},
	{"walk.hops_per_walk", "count"},
	{"walk.segments_per_walk", "count"},
	{"walk.accept_ratio", "ratio"},
	{"ledger.join.walk_msgs", "count"},
	{"ledger.join.randnum_msgs", "count"},
	{"ledger.join.exchange_msgs", "count"},
	{"ledger.join.cascade_msgs", "count"},
	{"ledger.join.intra_msgs", "count"},
	{"ledger.join.inter_msgs", "count"},
	{"ledger.join.rounds", "count"},
	{"ledger.leave.walk_msgs", "count"},
	{"ledger.leave.randnum_msgs", "count"},
	{"ledger.leave.exchange_msgs", "count"},
	{"ledger.leave.cascade_msgs", "count"},
	{"ledger.leave.intra_msgs", "count"},
	{"ledger.leave.inter_msgs", "count"},
	{"ledger.leave.rounds", "count"},
	{"core.swaps_per_op", "count"},
	{"core.splits_per_kop", "count"},
	{"core.merges_per_kop", "count"},
	{"sched.deferred_frac", "ratio"},
	{"sched.defer.footprint_frac", "ratio"},
	{"sched.defer.split_frac", "ratio"},
	{"sched.defer.merge_frac", "ratio"},
	{"sched.defer.emptied_frac", "ratio"},
	{"sched.skipped_frac", "ratio"},
	{"nownet.encode_ns", "ns"},
	{"nownet.decode_ns", "ns"},
	{"nownet.reframe_ns", "ns"},
	{"nownet.wire_bytes_per_req", "B"},
	{"nownet.attempts_per_req", "count"},
	{"nownet.timeouts", "count"},
	{"nownet.late", "count"},
	{"nownet.forged", "count"},
	{"nownet.misrouted", "count"},
	{"tcp.dials", "count"},
	{"tcp.redials", "count"},
	{"tcp.write_errors", "count"},
	{"tcp.resync_bytes", "B"},
	{"tcp.dropped", "count"},
	{"go.allocs_per_op", "count"},
	{"go.bytes_per_op", "B"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"go.heap_mb", "MB"},
	{"trace.overhead_us", "us"},
	{"trace.overhead_pct", "%"},
}

// layerMetrics returns every per-layer metric set to 0.
func layerMetrics() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, l := range perLayer {
		m[l.name] = 0
	}
	return m
}
