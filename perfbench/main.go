// Command perfbench is the repository benchmark: it runs one workload
// from a seed, checks the program's outputs, and prints every metric by
// name with its unit. The last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics; the lines before
// it carry the run record (box, commit, seed, sample counts, determinism
// digest, tracing overhead and span summary).
//
//	bash perfbench/run.sh --workload churn --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With --trace 1 the run makes two passes over fresh worlds
// built from the same seed: an untraced one and a traced one that records
// a span around every call the benchmark makes into a layer and makes
// timed probe calls between steps. The traced pass reports the per-layer
// metrics; the difference between the two passes is the tracing overhead,
// and their determinism digests must agree. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() {
	opts, err := parseOptions(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(opts, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// options are the command-line flags.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	// ops, when positive, ends each pass after exactly this many steps
	// instead of after the time bound, and sets up once: the smoke test
	// uses it to compare final-state digests of same-seed runs.
	ops   int
	spans string
}

func parseOptions(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&o.seconds, "seconds", 10, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	fs.IntVar(&o.ops, "ops", 0, "stop each pass after this many steps (0: use --seconds)")
	fs.StringVar(&o.spans, "spans", "", "write the traced pass's raw spans to this file as JSON lines")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if lookup(o.workload) == nil {
		return o, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds < 1 || o.ops < 0 {
		return o, fmt.Errorf("--seconds must be at least 1 and --ops non-negative")
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	o.trace = trace == 1
	return o, nil
}

// metric is one reported value. Samples, the number of measurements
// behind it, is set in the run record only.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the run record printed before the result line.
type record struct {
	Workload string              `json:"workload"`
	Seed     uint64              `json:"seed"`
	Trace    bool                `json:"trace"`
	Seconds  int                 `json:"seconds"`
	Box      box                 `json:"box"`
	Source   source              `json:"source"`
	Setups   int                 `json:"setups,omitempty"`
	Steps    int                 `json:"steps"`
	Digest   digestAt            `json:"digest"`
	Samples  map[string]int      `json:"samples"`
	Windows  int                 `json:"windows,omitempty"`
	Named    map[string]metric   `json:"named_metrics,omitempty"`
	Overhead map[string]metric   `json:"tracing_overhead,omitempty"`
	Spans    map[string]spanStat `json:"spans,omitempty"`
}

// digestAt is a determinism digest and the step count it was taken at.
type digestAt struct {
	Steps  int    `json:"steps"`
	SHA256 string `json:"sha256"`
}

func run(o options, out io.Writer) (result, error) {
	sp := lookup(o.workload)
	if sp.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(sp.procs))
	}
	rec := record{
		Workload: o.workload, Seed: o.seed, Trace: o.trace, Seconds: o.seconds,
		Box: readBox(), Source: readSource(),
	}
	var res result
	var err error
	if o.trace {
		res, err = runTraced(sp, o, &rec)
	} else {
		res, err = runPlain(sp, o, &rec)
	}
	if err != nil {
		return result{}, err
	}
	line, err := json.Marshal(map[string]record{"record": rec})
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "%s\n", line)
	return res, nil
}

// runPlain measures the end-to-end metrics with tracing off.
func runPlain(sp *spec, o options, rec *record) (result, error) {
	w, setupS, reps, err := timedSetups(sp, o)
	if err != nil {
		return result{}, err
	}
	defer w.close()
	p, err := runPass(sp, w, o, false, time.Duration(o.seconds)*time.Second)
	if err != nil {
		return result{}, err
	}
	if err := w.check(); err != nil {
		return result{}, fmt.Errorf("final check: %w", err)
	}
	rss := peakRSSMB()
	lat := p.lat[sp.latency]

	rec.Setups = reps
	rec.Steps = p.steps
	rec.Digest = p.digest
	rec.Samples = p.sampleCounts()
	rec.Windows = lat.windows()
	rec.Named = map[string]metric{
		"setup_s":     {Value: setupS, Unit: "s", Samples: reps},
		"ops_per_s":   {Value: p.opsPerSec(), Unit: "1/s", Samples: p.ops},
		"failed_frac": {Value: ratio(float64(p.failed), float64(p.attempted)), Unit: "ratio", Samples: p.attempted},
		"peak_rss_mb": {Value: rss, Unit: "MB"},
	}
	for _, nm := range sp.named {
		s := p.lat[nm.series]
		rec.Named[nm.name] = metric{Value: s.quantile(nm.q) / nm.scale, Unit: nm.unit, Samples: s.len()}
	}
	return result{
		Correct:   true,
		Attempted: p.attempted,
		Failed:    p.failed,
		Metrics: map[string]metric{
			"setup_s":     {Value: setupS, Unit: "s"},
			"ops_per_s":   {Value: p.opsPerSec(), Unit: "1/s"},
			"lat_p50_us":  {Value: lat.windowedQuantile(0.50) / 1e3, Unit: "us"},
			"lat_p90_us":  {Value: lat.windowedQuantile(0.90) / 1e3, Unit: "us"},
			"peak_rss_mb": {Value: rss, Unit: "MB"},
		},
	}, nil
}

// runTraced makes an untraced and a traced pass over fresh worlds from
// the same seed and reports the per-layer metrics.
func runTraced(sp *spec, o options, rec *record) (result, error) {
	half := time.Duration(o.seconds) * time.Second / 2

	wa, err := sp.build(o.seed)
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	pa, err := runPass(sp, wa, o, false, half)
	if err == nil {
		err = wa.check()
	}
	wa.close()
	if err != nil {
		return result{}, fmt.Errorf("untraced pass: %w", err)
	}
	releaseMemory()

	wb, err := sp.build(o.seed)
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	defer wb.close()
	pb, err := runPass(sp, wb, o, true, half)
	if err != nil {
		return result{}, fmt.Errorf("traced pass: %w", err)
	}
	if err := wb.check(); err != nil {
		return result{}, fmt.Errorf("traced pass final check: %w", err)
	}
	if pa.digest != pb.digest {
		return result{}, fmt.Errorf("traced pass digest %+v differs from untraced %+v: the probes perturbed the run", pb.digest, pa.digest)
	}

	m := layerMetrics()
	wb.layers(m)
	ops := float64(pa.ops)
	m["go.allocs_per_op"] = ratio(float64(pa.mem.Mallocs), ops)
	m["go.bytes_per_op"] = ratio(float64(pa.mem.TotalAlloc), ops)
	m["go.gc_cycles"] = float64(pa.mem.NumGC)
	m["go.gc_pause_ms"] = float64(pa.mem.PauseTotalNs) / 1e6
	m["go.heap_mb"] = float64(pa.heapLive) / (1 << 20)
	la, lb := pa.lat[wholeStep].quantile(0.5), pb.lat[wholeStep].quantile(0.5)
	m["trace.overhead_us"] = (lb - la) / 1e3
	m["trace.overhead_pct"] = 100 * ratio(lb-la, la)

	if o.spans != "" {
		if err := pb.tr.writeJSONL(o.spans); err != nil {
			return result{}, err
		}
	}
	rec.Steps = pa.steps + pb.steps
	rec.Digest = pb.digest
	rec.Samples = pb.sampleCounts()
	rec.Overhead = map[string]metric{
		"untraced_step_p50_us": {Value: la / 1e3, Unit: "us", Samples: pa.lat[wholeStep].len()},
		"traced_step_p50_us":   {Value: lb / 1e3, Unit: "us", Samples: pb.lat[wholeStep].len()},
		"overhead_us":          {Value: m["trace.overhead_us"], Unit: "us"},
		"overhead_pct":         {Value: m["trace.overhead_pct"], Unit: "%"},
	}
	rec.Spans = pb.tr.summary()

	res := result{
		Correct:   true,
		Attempted: pa.attempted + pb.attempted,
		Failed:    pa.failed + pb.failed,
		Metrics:   make(map[string]metric, len(m)),
	}
	for _, l := range perLayer {
		res.Metrics[l.name] = metric{Value: m[l.name], Unit: l.unit}
	}
	return res, nil
}

// timedSetups builds the workload repeatedly for setupSpan of wall time,
// timing each build, and returns a fresh last instance with the median
// set-up time. Each earlier instance runs steps for setupGap before it is
// torn down and its memory returned, so the builds are spread evenly over
// the span: the host's speed drifts on a scale of seconds, and builds
// bunched into a few milliseconds would see only one of its states.
func timedSetups(sp *spec, o options) (workload, float64, int, error) {
	var times []float64
	start := time.Now()
	for {
		t0 := time.Now()
		w, err := sp.build(o.seed)
		d := time.Since(t0)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, d.Seconds())
		if o.ops > 0 || (len(times) >= minSetups && time.Since(start) >= setupSpan) {
			return w, median(times), len(times), nil
		}
		err = exercise(w, setupGap)
		w.close()
		if err != nil {
			return nil, 0, 0, fmt.Errorf("set-up instance %d: %w", len(times), err)
		}
		releaseMemory()
	}
}

// Set-ups: at least minSetups, one every setupGap or so until setupSpan
// has passed.
const (
	minSetups = 3
	setupSpan = 3 * time.Second
	setupGap  = 20 * time.Millisecond
)

// exercise runs untimed steps on w for d.
func exercise(w workload, d time.Duration) error {
	r := newRecorder(false)
	for t0 := time.Now(); time.Since(t0) < d; {
		if err := w.step(r); err != nil {
			return err
		}
	}
	return nil
}

// wholeStep is the series of whole-step wall times, the span calls of a
// traced pass included: the tracing overhead is the difference of its
// medians between the traced and the untraced pass.
const wholeStep = "whole_step"

// pass is the outcome of one measured pass: what its recorder collected
// over the measured window, plus the pass's own counts.
type pass struct {
	*recorder
	steps    int // steps run, warm-up included
	digest   digestAt
	mem      runtime.MemStats // deltas over the measured window
	heapLive uint64           // live heap after a forced GC at the end
}

// opsPerSec is the operations completed per second of step time.
func (p *pass) opsPerSec() float64 { return ratio(float64(p.ops), p.busy.Seconds()) }

func (p *pass) sampleCounts() map[string]int {
	out := make(map[string]int, len(p.lat))
	for name, s := range p.lat {
		out[name] = s.len()
	}
	return out
}

// runPass drives w in a closed loop: warm-up steps first, then steps until
// dur has passed (or exactly o.ops steps). The determinism digest is taken
// once the step count reaches the workload's digest point (the final step
// under --ops); the loop runs on until then even past dur.
func runPass(sp *spec, w workload, o options, traced bool, dur time.Duration) (*pass, error) {
	r := newRecorder(traced)
	digestStep, warm := sp.digestSteps, sp.warmSteps
	if o.ops > 0 {
		digestStep, warm = o.ops, 0
	}
	p := &pass{}
	step := func() error {
		// The whole step, span calls included, is timed from outside, so
		// the traced and untraced passes compare on the same interval.
		t0 := time.Now()
		err := w.step(r)
		r.add(wholeStep, time.Since(t0))
		if err != nil {
			return fmt.Errorf("step %d: %w", p.steps, err)
		}
		p.steps++
		if traced && p.steps%sp.probeEvery == 0 {
			if err := w.probe(r); err != nil {
				return fmt.Errorf("probe after step %d: %w", p.steps, err)
			}
		}
		if p.steps == digestStep {
			p.digest = digestAt{Steps: p.steps, SHA256: w.digest()}
		}
		return nil
	}
	for i := 0; i < warm; i++ {
		if err := step(); err != nil {
			return nil, err
		}
	}
	r = newRecorder(traced) // drop what the warm-up recorded
	r.windowed(sp.latency, sp.window)
	p.recorder = r
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b0 := buildAllocs(w)
	start := time.Now()
	for {
		if o.ops > 0 {
			if p.steps >= o.ops {
				break
			}
		} else if p.steps >= digestStep && time.Since(start) >= dur {
			break
		}
		if err := step(); err != nil {
			return nil, err
		}
	}
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	b1 := buildAllocs(w)
	p.mem = runtime.MemStats{
		Mallocs:      m1.Mallocs - m0.Mallocs - (b1.Mallocs - b0.Mallocs),
		TotalAlloc:   m1.TotalAlloc - m0.TotalAlloc - (b1.TotalAlloc - b0.TotalAlloc),
		NumGC:        m1.NumGC - m0.NumGC,
		PauseTotalNs: m1.PauseTotalNs - m0.PauseTotalNs,
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	p.heapLive = m1.HeapAlloc

	if p.ops == 0 {
		return nil, errors.New("no operation completed in the measured window")
	}
	return p, nil
}

// releaseMemory collects a torn-down world and hands its pages back to
// the OS, so the next build starts from the same footprint.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
