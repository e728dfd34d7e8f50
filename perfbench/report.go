package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metricDef names one metric and its unit. The two tables below are the
// benchmark's metric contract: BENCHMARK.json lists the same names and
// units (the smoke test checks that), a --trace 0 run reports every
// end-to-end metric and a --trace 1 run every per-layer one.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_ms.p50", "ms"},
	{"ops_per_s", "1/s"},
	{"slo_frac", "ratio"},
	{"peak_rss_mib", "MiB"},
}

// queryClasses are the warm-sweep op classes: regime × sweep precision ×
// integration driver.
var queryClasses = func() []string {
	var out []string
	for _, r := range []string{"excursion", "prefix", "wide"} {
		for _, p := range []string{"f64", "f32"} {
			for _, d := range []string{"fixed", "budget"} {
				out = append(out, r+"."+p+"."+d)
			}
		}
	}
	return out
}()

// busyKinds are the factorization task kinds the engine reports busy time
// for; every other kind the runtime reports is query work.
var busyKinds = []string{"assemble", "potrf", "trsm", "syrk", "gemm", "evict"}

// traceLayers are the layers a traced op's spans are attributed to; the
// op's own uncovered time is reported as facade.residual_ms.p50.
var traceLayers = []string{"serve", "transport", "engine", "mvn", "excursion"}

var perLayer = func() []metricDef {
	m := []metricDef{
		{"serve.handler_ms.p50", "ms"},
		{"serve.handler_ms.p90", "ms"},
		{"serve.transport_ms.p50", "ms"},
		{"serve.latency_ms.p90", "ms"},
		{"serve.coalesced_frac", "ratio"},
		{"serve.batch_size.mean", "count"},
		{"serve.factorizations", "count"},
		{"serve.rejected", "count"},
		{"serve.degraded", "count"},
		{"serve.cache_hit_frac", "ratio"},
		{"serve.gen_late_ms.max", "ms"},
		{"facade.key_us.p50", "us"},
		{"facade.cache_hit_frac", "ratio"},
		{"facade.residual_ms.p50", "ms"},
		{"engine.factorize_s.p50", "s"},
	}
	for _, k := range busyKinds {
		m = append(m, metricDef{"engine.busy_s." + k, "s"})
	}
	m = append(m,
		metricDef{"engine.factor_mib", "MiB"},
		metricDef{"engine.lowrank_tiles", "count"},
		metricDef{"engine.max_rank", "count"},
		metricDef{"taskrt.busy_frac", "ratio"},
		metricDef{"taskrt.tasks", "count"},
		metricDef{"taskrt.stolen", "count"},
		metricDef{"taskrt.peak_ready", "count"},
		metricDef{"taskrt.peak_inflight", "count"},
		metricDef{"taskrt.speedup", "ratio"},
	)
	for _, c := range queryClasses {
		m = append(m, metricDef{"mvn.query_ms." + c + ".p50", "ms"})
	}
	m = append(m,
		metricDef{"mvn.samples.mean", "count"},
		metricDef{"mvn.converged_frac", "ratio"},
		metricDef{"mvn.qmc_busy_s", "s"},
		metricDef{"mvn.ns_per_sample_dim", "ns"},
		metricDef{"excursion.assemble_s", "s"},
		metricDef{"excursion.detect_s", "s"},
		metricDef{"excursion.factor_busy_s", "s"},
		metricDef{"excursion.prefix_busy_s", "s"},
		metricDef{"excursion.region_size", "count"},
		metricDef{"linalg.gemm_gflops", "GFLOP/s"},
		metricDef{"linalg.syrk_gflops", "GFLOP/s"},
		metricDef{"linalg.trsm_gflops", "GFLOP/s"},
		metricDef{"linalg.gemm_flop_per_byte", "flop/B"},
		metricDef{"stats.phi_interval_ns", "ns"},
		metricDef{"qmc.fill_ns", "ns"},
	)
	for _, l := range traceLayers {
		m = append(m, metricDef{"trace.self_ms." + l, "ms"})
	}
	m = append(m,
		metricDef{"trace.op_ms.p50", "ms"},
		metricDef{"trace.overhead_ms", "ms"},
		metricDef{"trace.account_err", "ratio"},
	)
	return m
}()

var units = func() map[string]string {
	u := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		u[d.name] = d.unit
	}
	return u
}()

// report collects one run's metrics, counts and notes.
type report struct {
	vals   map[string]float64
	absent map[string]bool
	notes  []string

	attempted, failed int
	// wrong counts answers that failed a correctness check (a subset of
	// failed, which also counts errors and refusals).
	wrong int
}

func newReport() *report {
	return &report{vals: map[string]float64{}, absent: map[string]bool{}}
}

func (r *report) set(name string, v float64) {
	if _, ok := units[name]; !ok {
		panic("perfbench: unknown metric " + name)
	}
	r.vals[name] = v
}

// setAbsent marks a metric whose source (a /stats key) the program no
// longer reports: it is printed as absent and left out of the result line.
func (r *report) setAbsent(name string) {
	if _, ok := units[name]; !ok {
		panic("perfbench: unknown metric " + name)
	}
	r.absent[name] = true
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check records the outcome of one correctness check on an attempted op
// and returns it.
func (r *report) check(ok bool, format string, args ...any) bool {
	if !ok {
		r.wrong++
		r.failed++
		if r.wrong <= 5 {
			r.note("CHECK FAILED: "+format, args...)
		}
	}
	return ok
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// selected returns the metrics a run reports: the end-to-end table
// untraced, the per-layer table traced. A per-layer metric the workload
// does not exercise reads 0 (no work was done in that layer).
func (r *report) selected(traced bool) map[string]metricOut {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := map[string]metricOut{}
	for _, d := range defs {
		if r.absent[d.name] {
			continue
		}
		out[d.name] = metricOut{Value: r.vals[d.name], Unit: d.unit}
	}
	return out
}

func (r *report) result(traced bool) resultLine {
	return resultLine{
		Correct:   r.wrong == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.selected(traced),
	}
}

// print writes the human-readable metric table and notes, then the result
// line, which is always the last line of the output.
func (r *report) print(w io.Writer, traced bool) error {
	for _, n := range r.notes {
		fmt.Fprintln(w, "# "+n)
	}
	names := make([]string, 0, len(r.vals)+len(r.absent))
	for n := range r.vals {
		names = append(names, n)
	}
	for n := range r.absent {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if r.absent[n] {
			fmt.Fprintf(w, "%-40s %14s %s\n", n, "absent", units[n])
			continue
		}
		fmt.Fprintf(w, "%-40s %14s %s\n", n, strconv.FormatFloat(r.vals[n], 'g', 8, 64), units[n])
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-40s %14s ratio (%d of %d attempted)\n", "failed_frac", strconv.FormatFloat(frac, 'g', 8, 64), r.failed, r.attempted)
	line, err := json.Marshal(r.result(traced))
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (pos-float64(lo))*(xs[hi]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// rssTracker measures the resident-set high-water mark (VmHWM) of each op:
// the mark is reset before the op and read after it, and the run reports
// the median over ops, which is steadier than one process-wide peak that
// depends on where garbage collections happened to fall. Where the kernel
// refuses the reset, it falls back to the process-wide peak.
type rssTracker struct {
	peaks   []float64
	noReset bool
}

func (t *rssTracker) opStart() {
	if t.noReset {
		return
	}
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		t.noReset = true
	}
}

func (t *rssTracker) opEnd() {
	if v, err := vmHWM(); err == nil {
		t.peaks = append(t.peaks, v)
	}
}

func (t *rssTracker) peak() float64 {
	if t.noReset || len(t.peaks) == 0 {
		v, _ := vmHWM() // 0 when /proc is unreadable
		return v
	}
	return median(t.peaks)
}

// vmHWM reads the process's resident-set high-water mark in MiB.
func vmHWM() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
