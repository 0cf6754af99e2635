package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nowover/internal/runtime"
	"nowover/internal/xrand"
)

// declared mirrors the metric lists of BENCHMARK.json.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// smokeSteps keeps each smoke run to a fraction of a second past set-up,
// except batched, which runs into its second world.
var smokeSteps = map[string]int{"churn": 6, "sample": 200, "batched": batchedSpec.episode + 2, "rpc": 200}

// runSmoke runs one workload for a fixed number of steps from the
// repository root and returns its record and result.
func runSmoke(t *testing.T, workload string, trace bool, spans string) (record, result) {
	t.Helper()
	o := options{workload: workload, seed: 3, seconds: 1, trace: trace, ops: smokeSteps[workload], spans: spans}
	var out bytes.Buffer
	res, err := run(o, &out)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	var line map[string]record
	if err := json.Unmarshal(out.Bytes(), &line); err != nil {
		t.Fatalf("%s: record line: %v\n%s", workload, err, out.String())
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("%s trace=%v: result %+v", workload, trace, res)
	}
	return line["record"], res
}

func checkMetrics(t *testing.T, workload string, got map[string]metric, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", workload, len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", workload, m.Name)
			continue
		}
		if g.Unit != m.Unit {
			t.Errorf("%s: metric %s in %q, BENCHMARK.json says %q", workload, m.Name, g.Unit, m.Unit)
		}
	}
}

// TestSmoke runs every workload tiny: twice untraced with the same seed
// (digests must match) and once traced (digest must match the untraced
// runs), checking every declared metric is present with its unit.
func TestSmoke(t *testing.T) {
	d := readDeclared(t)
	// The benchmark runs from the repository root.
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir("perfbench")
	if len(d.Workloads) < 2 {
		t.Fatalf("BENCHMARK.json declares %d workloads", len(d.Workloads))
	}
	for _, w := range d.Workloads {
		if lookup(w.Name) == nil {
			t.Errorf("declared workload %s is not implemented", w.Name)
		}
	}
	for _, w := range specs {
		t.Run(w.name, func(t *testing.T) {
			rec1, res1 := runSmoke(t, w.name, false, "")
			rec2, _ := runSmoke(t, w.name, false, "")
			checkMetrics(t, w.name, res1.Metrics, d.EndToEnd)
			for _, m := range res1.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s: end-to-end metric reads %v", w.name, m.Value)
				}
			}
			if rec1.Digest.SHA256 == "" || rec1.Digest != rec2.Digest {
				t.Errorf("%s: same-seed digests differ: %+v vs %+v", w.name, rec1.Digest, rec2.Digest)
			}
			for _, key := range []string{"setup_s", "ops_per_s", "failed_frac", "peak_rss_mb"} {
				if _, ok := rec1.Named[key]; !ok {
					t.Errorf("%s: run record lacks %s", w.name, key)
				}
			}
			if rec1.Box.GoVersion == "" || rec1.Source.Tree == "" || rec1.Seed != 3 {
				t.Errorf("%s: incomplete run record %+v", w.name, rec1)
			}

			spans := filepath.Join(t.TempDir(), "spans.jsonl")
			recT, resT := runSmoke(t, w.name, true, spans)
			checkMetrics(t, w.name, resT.Metrics, d.PerLayer)
			if recT.Digest != rec1.Digest {
				t.Errorf("%s: traced digest %+v differs from untraced %+v", w.name, recT.Digest, rec1.Digest)
			}
			if len(recT.Spans) == 0 || recT.Overhead == nil {
				t.Errorf("%s: traced record lacks spans or overhead", w.name)
			}
			checkSpans(t, spans)
		})
	}
}

// checkSpans verifies the raw span file: every span ends after it starts
// and lies within its parent, which belongs to the same root.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[int32]span)
	for i, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		var s span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("span %d: %v", i, err)
		}
		if s.Name == "" || s.End < s.Start {
			t.Fatalf("span %d malformed: %+v", i, s)
		}
		byID[s.ID] = s
	}
	for _, s := range byID {
		if s.Parent < 0 {
			if s.Root != s.ID {
				t.Fatalf("root span %+v names another root", s)
			}
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.Root != s.Root || s.Start < p.Start || s.End > p.End {
			t.Fatalf("span %+v does not nest in its parent %+v", s, p)
		}
	}
}

func TestParseOptions(t *testing.T) {
	o, err := parseOptions(strings.Fields("--workload rpc --seed 9 --seconds 3 --trace 1"))
	if err != nil || o.workload != "rpc" || o.seed != 9 || o.seconds != 3 || !o.trace {
		t.Fatalf("got %+v, %v", o, err)
	}
	for _, bad := range []string{
		"--workload nope",
		"--workload rpc --trace 2",
		"--workload rpc --seconds 0",
		"--workload rpc extra",
	} {
		if _, err := parseOptions(strings.Fields(bad)); err == nil {
			t.Errorf("%q: accepted", bad)
		}
	}
}

func TestSeriesQuantiles(t *testing.T) {
	var s series
	for v := int64(1); v <= 1000; v++ {
		s.add(v * 1000)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500500}, {0.9, 900100}, {0.99, 990010}} {
		if got := s.quantile(c.q); got < c.want*0.99 || got > c.want*1.01 {
			t.Errorf("q%v = %v, want %v within 1%%", c.q, got, c.want)
		}
	}
	for v := int64(0); v < 1<<16; v++ {
		lo, width := bucketRange(bucketOf(v))
		if float64(v) < lo || float64(v) >= lo+width {
			t.Fatalf("%d falls outside its bucket [%v, %v)", v, lo, lo+width)
		}
	}
}

// TestRoundFrames checks that rpc payloads are round frames as a round
// host sends them: 13-21 bytes that the payload codec decodes.
func TestRoundFrames(t *testing.T) {
	rng := xrand.New(7)
	for i := 0; i < 1000; i++ {
		f, err := roundFrame(rng)
		if err != nil {
			t.Fatal(err)
		}
		if len(f) < 13 || len(f) > 21 {
			t.Fatalf("frame %x has %d bytes", f, len(f))
		}
		if _, err := runtime.DecodePayload(f[4], f[5:]); err != nil {
			t.Fatalf("frame %x: %v", f, err)
		}
	}
}

// TestWindowedQuantile checks that a windowed series reports the median
// of its complete windows' quantiles, and the whole series' quantile
// before its first window completes.
func TestWindowedQuantile(t *testing.T) {
	r := newRecorder(false)
	r.windowed("x", 10)
	s := r.lat["x"]
	for i := 1; i <= 5; i++ {
		s.add(int64(i))
	}
	if got := s.windowedQuantile(0.5); got != s.quantile(0.5) {
		t.Errorf("no complete window: got %v, want %v", got, s.quantile(0.5))
	}
	s = &series{window: 10, cur: &series{}}
	// Three windows of 0..9 scaled by 1, 2 and 100: the slow third window
	// moves the whole series' p90 but not the median window's.
	for _, scale := range []int64{1, 2, 100} {
		for i := int64(0); i < 10; i++ {
			s.add(i * scale)
		}
	}
	s.add(1000) // an incomplete window counts for the whole series only
	if s.windows() != 3 {
		t.Fatalf("%d windows, want 3", s.windows())
	}
	middle := &series{}
	for i := int64(0); i < 10; i++ {
		middle.add(i * 2)
	}
	for _, q := range windowQuantiles {
		if got, want := s.windowedQuantile(q), middle.quantile(q); got != want {
			t.Errorf("windowed q%v %v, want %v", q, got, want)
		}
	}
	if s.quantile(0.9) < 100 {
		t.Errorf("whole-series p90 %v should reach the slow window", s.quantile(0.9))
	}
}
