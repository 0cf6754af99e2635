package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"time"
)

// recorder collects one pass's latency series, operation counts and, in a
// traced pass, spans.
type recorder struct {
	tr        *tracer // nil in an untraced pass
	lat       map[string]*series
	ops       int
	attempted int
	failed    int
	busy      time.Duration
}

func newRecorder(traced bool) *recorder {
	r := &recorder{lat: make(map[string]*series)}
	if traced {
		r.tr = newTracer()
	}
	return r
}

// add appends one latency sample to the named series.
func (r *recorder) add(name string, d time.Duration) {
	s := r.lat[name]
	if s == nil {
		s = &series{}
		r.lat[name] = s
	}
	s.add(int64(d))
}

// step records one completed closed-loop step: its latency in the named
// series and the operations it completed.
func (r *recorder) step(name string, d time.Duration, completed int) {
	r.add(name, d)
	r.busy += d
	r.complete(completed)
}

// complete records operations that completed outside a timed step.
func (r *recorder) complete(n int) {
	r.ops += n
	r.attempted += n
}

// fail records operations that errored or were skipped. A failed
// operation has no latency sample: it missed every latency limit.
func (r *recorder) fail(n int) {
	r.failed += n
	r.attempted += n
}

// begin opens a span inside the innermost open one, or a root span when
// none is open. It is a no-op returning -1 in an untraced pass.
func (r *recorder) begin(name string) int32 {
	if r.tr == nil {
		return -1
	}
	return r.tr.begin(name)
}

// end closes a span opened by begin.
func (r *recorder) end(id int32) {
	if r.tr != nil {
		r.tr.end(id)
	}
}

// span is one timed call: its identifier, name, start and end in
// nanoseconds since the tracer's epoch, the identifier of the span that
// caused it (-1 for a root), and the root span it belongs to, which
// identifies the step or probe it served.
type span struct {
	ID     int32  `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Root   int32  `json:"root"`
}

// maxRawSpans bounds the spans a tracer keeps for --spans; the summary
// covers every span.
const maxRawSpans = 1 << 17

// tracer aggregates spans as they end and keeps the first maxRawSpans of
// them in memory until the benchmark ends, so a long traced pass runs in
// fixed memory. Spans nest: each ends before its parent does.
type tracer struct {
	epoch time.Time
	next  int32
	open  []openSpan
	stats map[string]*spanStat
	spans []span
}

// openSpan is a span that has begun, with the time its direct children
// have covered so far.
type openSpan struct {
	span
	child int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), stats: make(map[string]*spanStat)}
}

func (t *tracer) begin(name string) int32 {
	id := t.next
	t.next++
	parent, root := int32(-1), id
	if n := len(t.open); n > 0 {
		parent, root = t.open[n-1].ID, t.open[n-1].Root
	}
	t.open = append(t.open, openSpan{span: span{ID: id, Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, Root: root}})
	return id
}

func (t *tracer) end(id int32) {
	end := int64(time.Since(t.epoch))
	top := len(t.open) - 1
	o := t.open[top]
	if o.ID != id {
		panic(fmt.Sprintf("tracer: span %d ended while span %d is open", id, o.ID))
	}
	t.open = t.open[:top]
	o.End = end
	d := o.End - o.Start
	if top > 0 {
		t.open[top-1].child += d
	}
	st := t.stats[o.Name]
	if st == nil {
		st = &spanStat{}
		t.stats[o.Name] = st
	}
	st.Count++
	st.TotalMs += float64(d) / 1e6
	st.SelfMs += float64(d-o.child) / 1e6
	if len(t.spans) < maxRawSpans {
		t.spans = append(t.spans, o.span)
	}
}

// spanStat summarizes the spans of one name. Self time is a span's
// duration minus the time its direct children cover.
type spanStat struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
	MeanUs  float64 `json:"mean_us"`
}

func (t *tracer) summary() map[string]spanStat {
	out := make(map[string]spanStat, len(t.stats))
	for name, st := range t.stats {
		s := *st
		s.MeanUs = s.TotalMs * 1e3 / float64(s.Count)
		out[name] = s
	}
	return out
}

// writeJSONL writes the kept spans as JSON lines, in the order they ended.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}

// series is a latency histogram in nanoseconds with log-linear buckets:
// values below 2^seriesBits are exact, larger ones fall in buckets of
// 2^seriesBits per power of two, a relative width under 1%. It keeps the
// benchmark's own memory fixed, so peak_rss_mb measures the program.
//
// A windowed series also cuts its samples into windows of a fixed count
// and keeps the windowQuantiles of every complete window.
type series struct {
	counts []uint32
	n      int
	window int
	cur    *series
	wins   [len(windowQuantiles)][]float64
}

// windowQuantiles are the quantiles a windowed series keeps per window:
// those of lat_p50_us and lat_p90_us.
var windowQuantiles = [...]float64{0.50, 0.90}

// windowed makes the named series windowed, window samples per window.
func (r *recorder) windowed(name string, window int) {
	r.lat[name] = &series{window: window, cur: &series{}}
}

const seriesBits = 7

func bucketOf(v int64) int {
	if v < 1<<seriesBits {
		return int(max(v, 0))
	}
	shift := bits.Len64(uint64(v)) - seriesBits - 1
	return shift<<seriesBits + int(uint64(v)>>shift)
}

// bucketRange returns a bucket's lowest value and width.
func bucketRange(b int) (lo, width float64) {
	if b < 2<<seriesBits {
		return float64(b), 1
	}
	shift := b>>seriesBits - 1
	m := b - shift<<seriesBits
	return float64(int64(m) << shift), float64(int64(1) << shift)
}

func (s *series) add(v int64) {
	b := bucketOf(v)
	if b >= len(s.counts) {
		s.counts = append(s.counts, make([]uint32, b+1-len(s.counts))...)
	}
	s.counts[b]++
	s.n++
	if s.window == 0 {
		return
	}
	s.cur.add(v)
	if s.cur.n == s.window {
		for i, q := range windowQuantiles {
			s.wins[i] = append(s.wins[i], s.cur.quantile(q))
		}
		clear(s.cur.counts)
		s.cur.n = 0
	}
}

// windows returns the number of complete windows.
func (s *series) windows() int {
	if s == nil {
		return 0
	}
	return len(s.wins[0])
}

// windowedQuantile returns the median over complete windows of the
// q-quantile, q one of windowQuantiles: a host slowdown over less than
// half of a run's windows leaves it unmoved, where it would move the
// whole run's tail. Without a complete window it is the whole series'
// q-quantile.
func (s *series) windowedQuantile(q float64) float64 {
	if s.windows() == 0 {
		return s.quantile(q)
	}
	for i, wq := range windowQuantiles {
		if wq == q {
			return median(s.wins[i])
		}
	}
	panic(fmt.Sprintf("series: quantile %v is not kept per window", q))
}

func (s *series) len() int {
	if s == nil {
		return 0
	}
	return s.n
}

// quantile returns the q-quantile in nanoseconds, interpolating linearly
// between order statistics, each placed evenly within its bucket; 0 for
// an empty series.
func (s *series) quantile(q float64) float64 {
	if s.len() == 0 {
		return 0
	}
	pos := q * float64(s.n-1)
	k := int(pos)
	lo := s.rank(k)
	if k+1 >= s.n {
		return lo
	}
	frac := pos - float64(k)
	return lo*(1-frac) + s.rank(k+1)*frac
}

// rank returns the k-th smallest value (0-based).
func (s *series) rank(k int) float64 {
	seen := 0
	for b, c := range s.counts {
		if k < seen+int(c) {
			lo, width := bucketRange(b)
			return lo + (float64(k-seen)+0.5)*width/float64(c)
		}
		seen += int(c)
	}
	panic("series: rank out of range")
}
