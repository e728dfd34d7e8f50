package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Its name is
// "<layer>:<call>"; the root span of an op is named "op".
type span struct {
	Name   string        `json:"name"`
	Op     int           `json:"op"`
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for an op's root span
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps the spans of a traced run in memory; they are derived into
// per-layer self times and written out when the run ends. Safe for
// concurrent use (the serve workload records handler spans from server
// goroutines).
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// now is the tracer clock (monotonic, relative to the tracer's start).
func (t *tracer) now() time.Duration { return time.Since(t.base) }

// add records a finished span and returns its id.
func (t *tracer) add(name string, op, parent int, start, end time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: op, ID: id, Parent: parent, Start: start, End: end})
	return id
}

// reserve allocates a span id before the span's end is known, so children
// can name it as their parent; finish fills it in.
func (t *tracer) reserve(name string, op, parent int) int {
	return t.add(name, op, parent, t.now(), 0)
}

func (t *tracer) finish(id int) {
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// call runs fn inside a span named name under parent.
func (t *tracer) call(name string, op, parent int, fn func()) {
	id := t.reserve(name, op, parent)
	fn()
	t.finish(id)
}

// layerOf is the layer a span is attributed to ("op" for a root).
func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ":")
	return l
}

// traceSummary is what a traced run derives from its spans.
type traceSummary struct {
	ops int
	// selfMs is each layer's mean self time per traced op; residualMs the
	// root spans' self time (op time no layer span covers), one per op.
	selfMs     map[string]float64
	residualMs []float64
	opMs       []float64
	// accountErr is the largest |Σ self times − op time| / op time over the
	// traced ops: 0 when every child span lies inside its parent.
	accountErr float64
}

// summarize computes each span's self time — its duration minus the union
// of its children's intervals clipped to it — and sums it by layer.
func (t *tracer) summarize() traceSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]int, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	sum := traceSummary{selfMs: map[string]float64{}}
	opSelf := map[int]float64{}
	for _, s := range t.spans {
		self := s.End - s.Start - covered(s, children[s.ID], t.spans)
		ms := float64(self) / 1e6
		opSelf[s.Op] += ms
		if s.Parent < 0 {
			sum.ops++
			sum.residualMs = append(sum.residualMs, ms)
			sum.opMs = append(sum.opMs, float64(s.End-s.Start)/1e6)
			continue
		}
		sum.selfMs[layerOf(s.Name)] += ms
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			continue
		}
		opMs := float64(s.End-s.Start) / 1e6
		sum.accountErr = math.Max(sum.accountErr, math.Abs(opSelf[s.Op]-opMs)/opMs)
	}
	for l := range sum.selfMs {
		sum.selfMs[l] /= float64(max(sum.ops, 1))
	}
	return sum
}

// covered is the length of the union of the child intervals, clipped to s.
func covered(s span, kids []int, all []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(all[k].Start, s.Start), min(all[k].End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// write saves the spans as JSON for offline inspection.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// setTrace reports the per-layer self times, the residual, the traced op
// time, the tracing overhead (traced minus untraced op latency, p50) and
// the accounting check, which fails the run when named layers plus the
// residual do not add up to the traced op time.
func (r *report) setTrace(sum traceSummary, untracedMs []float64) {
	for _, l := range traceLayers {
		r.set("trace.self_ms."+l, sum.selfMs[l])
	}
	r.set("facade.residual_ms.p50", median(sum.residualMs))
	r.set("trace.op_ms.p50", median(sum.opMs))
	r.set("trace.overhead_ms", median(sum.opMs)-median(untracedMs))
	r.set("trace.account_err", sum.accountErr)
	r.note("traced ops %d, untraced ops %d; tracing overhead is trace.op_ms.p50 minus the untraced p50 %.4g ms",
		sum.ops, len(untracedMs), median(untracedMs))
	r.check(sum.ops > 0 && sum.accountErr < 1e-6, "layer self times + residual differ from traced op time by %.3g", sum.accountErr)
}
