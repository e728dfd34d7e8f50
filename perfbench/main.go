// Command perfbench is the repository's benchmark. It runs one named
// workload against the public entry points of the parmvn library, its HTTP
// server (internal/serve) and the leaf kernels (internal/linalg, stats,
// qmc), checks the answers, and prints every metric by name with its unit.
// The last line of its output is one JSON object:
//
//	{"correct":…, "attempted":…, "failed":…, "metrics":{name:{value,unit}}}
//
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Run it from the repository root through perfbench/run.sh,
// which builds it first:
//
//	bash perfbench/run.sh --workload cold-tlr --seed 1 --seconds 15 --trace 0
//
// Workloads (see BENCHMARK.json and manifest.json for why each exists):
// cold-tlr, warm-sweep, region-detect, serve-mixed.
//
// The benchmark never imports the engine's internal factor packages, so
// those can be reshaped without editing it; manifest.json lists every
// exported symbol it calls.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	out      string
}

// bench is the state shared by one workload run.
type bench struct {
	opt     options
	sz      sizes
	rng     *rand.Rand
	rep     *report
	tr      *tracer // nil in an untraced run
	rss     rssTracker
	workers int
}

var workloads = map[string]func(*bench) error{
	"cold-tlr":      runCold,
	"warm-sweep":    runWarm,
	"region-detect": runRegion,
	"serve-mixed":   runServe,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run parses args, runs the workload and prints its report to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var opt options
	var traceFlag int
	fs.StringVar(&opt.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&opt.seed, "seed", 1, "seed the workload's inputs are drawn from")
	fs.Float64Var(&opt.seconds, "seconds", 15, "how long the timed section runs")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	fs.BoolVar(&opt.smoke, "smoke", false, "tiny problem sizes: checks the schema and the answers, not the timings")
	fs.StringVar(&opt.out, "out", "", "directory for the run report, spans and task trace (empty: none)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fn, ok := workloads[opt.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", opt.workload, strings.Join(workloadNames(), ", "))
	}
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	if opt.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %g", opt.seconds)
	}
	opt.trace = traceFlag == 1
	if opt.out != "" {
		if err := os.MkdirAll(opt.out, 0o755); err != nil {
			return fmt.Errorf("create output directory: %w", err)
		}
	}
	b := &bench{
		opt:     opt,
		sz:      sizesFor(opt.smoke),
		rng:     rand.New(rand.NewSource(opt.seed)),
		rep:     newReport(),
		workers: runtime.GOMAXPROCS(0),
	}
	if opt.trace {
		b.tr = newTracer()
	}
	host := hostInfo()
	b.rep.note("workload %s seed %d seconds %g trace %v smoke %v", opt.workload, opt.seed, opt.seconds, opt.trace, opt.smoke)
	b.rep.note("host cpu %q nproc %d GOMAXPROCS %d workers %d go %s commit %s",
		host.CPU, host.NumCPU, host.GOMAXPROCS, b.workers, host.GoVersion, host.Commit)
	if err := fn(b); err != nil {
		return fmt.Errorf("%s: %w", opt.workload, err)
	}
	if b.tr != nil {
		kernels(b)
	}
	if b.rep.attempted == 0 {
		return fmt.Errorf("%s: no op completed within %gs", opt.workload, opt.seconds)
	}
	if opt.out != "" {
		if err := b.writeRunRecord(host); err != nil {
			return err
		}
	}
	bw := bufio.NewWriter(w)
	if err := b.rep.print(bw, opt.trace); err != nil {
		return err
	}
	return bw.Flush()
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// deadline is the end of the timed section that starts now.
func (b *bench) deadline() time.Time {
	return time.Now().Add(time.Duration(b.opt.seconds * float64(time.Second)))
}

// outPath names a file in the output directory ("" when there is none).
func (b *bench) outPath(kind, ext string) string {
	if b.opt.out == "" {
		return ""
	}
	t := 0
	if b.opt.trace {
		t = 1
	}
	return filepath.Join(b.opt.out, fmt.Sprintf("%s-%s-seed%d-trace%d.%s", kind, b.opt.workload, b.opt.seed, t, ext))
}

type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
}

func hostInfo() host {
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPU: "unknown", Commit: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		h.Commit = c
	}
	return h
}

// writeRunRecord saves the run's full record — host, seed, every metric
// collected, the notes — and, when traced, its spans.
func (b *bench) writeRunRecord(h host) error {
	rec := struct {
		Host     host                 `json:"host"`
		Workload string               `json:"workload"`
		Seed     int64                `json:"seed"`
		Seconds  float64              `json:"seconds"`
		Trace    bool                 `json:"trace"`
		Smoke    bool                 `json:"smoke"`
		Result   resultLine           `json:"result"`
		All      map[string]metricOut `json:"all_metrics"`
		Notes    []string             `json:"notes"`
	}{h, b.opt.workload, b.opt.seed, b.opt.seconds, b.opt.trace, b.opt.smoke, b.rep.result(b.opt.trace), map[string]metricOut{}, b.rep.notes}
	for n, v := range b.rep.vals {
		rec.All[n] = metricOut{Value: v, Unit: units[n]}
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("encode run record: %w", err)
	}
	if err := os.WriteFile(b.outPath("run", "json"), data, 0o644); err != nil {
		return fmt.Errorf("write run record: %w", err)
	}
	if b.tr != nil {
		return b.tr.write(b.outPath("spans", "json"))
	}
	return nil
}
