package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"repro"
)

// sizes fixes every problem dimension and sample count a workload uses.
// The full sizes are the canonical problem of the benchmark; smoke sizes
// exist only so the benchmark's own test runs in seconds.
type sizes struct {
	grid       int     // canonical grid side: n = grid² (cold-tlr, warm-sweep)
	tile       int     // tile size of every session
	coldQMC    int     // cold-tlr: fixed-N QMC size of the short query
	coldPool   int     // cold-tlr: kernel ranges in the seeded pool
	warmQMC    int     // warm-sweep: QMC size (the total budget when budgeted)
	prefix     int     // warm-sweep: bounded coordinates of the prefix regime
	regionGrid int     // region-detect: grid side
	regionQMC  int     // region-detect: QMC size of each prefix probability
	regionF    int     // region-detect: confidence-function nodes
	checkOps   int     // region-detect: ops checked against the dense reference
	serveGrids [2]int  // serve-mixed: grid sides of the two problem sizes
	serveKeys  int     // serve-mixed: distinct problems (> the server's cache)
	serveQMC   int     // serve-mixed: QMC size
	serveRate  float64 // serve-mixed: open-loop arrival rate, requests/s
	setupReps  int     // set-ups per run; setup_s is their median
}

func sizesFor(smoke bool) sizes {
	if smoke {
		return sizes{
			grid: 12, tile: 48, coldQMC: 64, coldPool: 2, warmQMC: 128, prefix: 16,
			regionGrid: 8, regionQMC: 128, regionF: 6, checkOps: 2,
			serveGrids: [2]int{5, 6}, serveKeys: 24, serveQMC: 64, serveRate: 40,
			setupReps: 1,
		}
	}
	return sizes{
		grid: 64, tile: 256, coldQMC: 256, coldPool: 3, warmQMC: 500, prefix: 64,
		regionGrid: 40, regionQMC: 500, regionF: 16, checkOps: 3,
		serveGrids: [2]int{20, 32}, serveKeys: 24, serveQMC: 128, serveRate: 12,
		setupReps: 3,
	}
}

// The canonical kernel: Matérn ν=2.5 with a nugget, compressed at a tight
// TLR tolerance. Workloads vary only its range.
const (
	canonRange = 0.1
	canonTol   = 1e-7
)

func canonKernel(rng float64) parmvn.KernelSpec {
	return parmvn.KernelSpec{Family: "matern", Range: rng, Nu: 2.5, Nugget: 0.1}
}

// sessionConfig is the configuration every library workload's sessions
// share; dense reference sessions differ only in Method.
func (b *bench) sessionConfig(method parmvn.Method, qmcN, reps int) parmvn.Config {
	return parmvn.Config{
		Method: method, Workers: b.workers, TileSize: b.sz.tile,
		TLRTol: canonTol, QMCSize: qmcN, Replicates: reps,
	}
}

// jitter draws base·(1 ± spread/2) from the workload's seed.
func (b *bench) jitter(base, spread float64) float64 {
	return base * (1 + spread*(b.rng.Float64()-0.5))
}

// boxes: lower-bounded coordinates (excursion), a lower-bounded prefix with
// the rest free, and a wide two-sided box.
func lowerBox(n, bounded int, lo float64) (a, bb []float64) {
	a, bb = make([]float64, n), make([]float64, n)
	for i := range a {
		a[i], bb[i] = math.Inf(-1), math.Inf(1)
		if i < bounded {
			a[i] = lo
		}
	}
	return a, bb
}

func wideBox(n int, w float64) (a, bb []float64) {
	a, bb = make([]float64, n), make([]float64, n)
	for i := range a {
		a[i], bb[i] = -w, w
	}
	return a, bb
}

// timeSetups runs setup reps times, keeping the last state and closing the
// others, and records setup_s as the median set-up time.
func timeSetups[T any](b *bench, setup func() (T, error), closeFn func(T)) (T, error) {
	var ds []float64
	var st T
	for i := 0; i < b.sz.setupReps; i++ {
		if i > 0 {
			closeFn(st)
		}
		t0 := time.Now()
		s, err := setup()
		if err != nil {
			var zero T
			return zero, err
		}
		ds = append(ds, time.Since(t0).Seconds())
		st = s
	}
	b.rep.set("setup_s", median(ds))
	b.rep.note("set-ups %v s", ds)
	return st, nil
}

// opLatencies is the closed-loop latency record of a run, one entry per op
// in op order. slo is the workload's latency limit in ms; ok marks ops that
// succeeded and (once checked) were answered correctly.
type opLatencies struct {
	slo                   float64
	all, untraced, traced []float64
	ok                    []bool
	wall                  time.Duration
	// cycles holds each cycle's mean op latency, for a workload whose ops
	// cycle through unlike classes; when set, it gives the median.
	cycles []float64
}

func (l *opLatencies) add(d time.Duration, traced, ok bool) {
	ms := float64(d) / 1e6
	l.all = append(l.all, ms)
	l.ok = append(l.ok, ok)
	l.wall += d
	if traced {
		l.traced = append(l.traced, ms)
	} else {
		l.untraced = append(l.untraced, ms)
	}
}

// setLatency reports the end-to-end latency metrics of a closed loop: the
// median over untraced ops (all ops when untraced; over cycle means when
// the workload records cycles), and the share of ops answered correctly
// within the latency limit. Call it after the checks.
func (b *bench) setLatency(l *opLatencies) {
	xs := l.untraced
	if len(l.cycles) > 0 {
		b.rep.set("latency_ms.p50", median(l.cycles))
	} else {
		b.rep.set("latency_ms.p50", quantile(xs, 0.5))
	}
	b.rep.set("ops_per_s", float64(len(l.all))/l.wall.Seconds())
	within := 0
	for i, ms := range l.all {
		if l.ok[i] && ms <= l.slo {
			within++
		}
	}
	b.rep.set("slo_frac", frac(float64(within), float64(len(l.all))))
	b.rep.note("latency samples %d (traced %d), SLO %g ms", len(xs), len(l.traced), l.slo)
}

// settle returns the garbage the set-ups left to the OS before a timed
// section starts, so the section's resident set reflects its own working
// set rather than when the scavenger last ran.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

func (b *bench) setPeakRSS() {
	b.rep.set("peak_rss_mib", b.rss.peak())
}

// schedDelta is the difference of two scheduler snapshots, summed over the
// sessions a workload runs on.
type schedDelta struct {
	busy               map[string]time.Duration
	tasks, stolen      int
	peakReady, peakInf int
}

type schedSnap struct {
	Tasks        map[string]int
	BusyTime     map[string]time.Duration
	PeakReady    int
	PeakInflight int
	Stolen       int
}

func snapshot(sessions ...*parmvn.Session) []schedSnap {
	out := make([]schedSnap, len(sessions))
	for i, s := range sessions {
		st := s.SchedulerStats()
		out[i] = schedSnap{Tasks: st.Tasks, BusyTime: st.BusyTime, PeakReady: st.PeakReady, PeakInflight: st.PeakInflight, Stolen: st.Stolen}
	}
	return out
}

func delta(before, after []schedSnap) schedDelta {
	d := schedDelta{busy: map[string]time.Duration{}}
	for i := range after {
		for k, v := range after[i].BusyTime {
			d.busy[k] += v - before[i].BusyTime[k]
		}
		for k, v := range after[i].Tasks {
			d.tasks += v - before[i].Tasks[k]
		}
		d.stolen += after[i].Stolen - before[i].Stolen
		d.peakReady = max(d.peakReady, after[i].PeakReady)
		d.peakInf = max(d.peakInf, after[i].PeakInflight)
	}
	return d
}

// factorBusy is the busy time of the factorization task kinds; the rest of
// totalBusy is query work (the sweep).
func (d schedDelta) factorBusy() time.Duration {
	var t time.Duration
	for _, k := range busyKinds {
		t += d.busy[k]
	}
	return t
}

func (d schedDelta) totalBusy() time.Duration {
	var t time.Duration
	for _, v := range d.busy {
		t += v
	}
	return t
}

// setSched reports the engine busy split per op and the runtime metrics
// over a timed section of wall time wall with ops ops.
func (b *bench) setSched(d schedDelta, wall time.Duration, ops int) {
	per := 1 / float64(max(ops, 1))
	for _, k := range busyKinds {
		b.rep.set("engine.busy_s."+k, d.busy[k].Seconds()*per)
	}
	b.rep.set("mvn.qmc_busy_s", (d.totalBusy()-d.factorBusy()).Seconds()*per)
	b.rep.set("taskrt.busy_frac", frac(d.totalBusy().Seconds(), wall.Seconds()*float64(b.workers)))
	b.rep.set("taskrt.tasks", float64(d.tasks)*per)
	b.rep.set("taskrt.stolen", float64(d.stolen)*per)
	b.rep.set("taskrt.peak_ready", float64(d.peakReady))
	b.rep.set("taskrt.peak_inflight", float64(d.peakInf))
}

// setFacade reports the problem-key cost at the workload's dimension and
// the factor-cache hit share over the timed section.
func (b *bench) setFacade(s *parmvn.Session, locs []parmvn.Point, spec parmvn.KernelSpec, hits0, misses0 int) error {
	hits, misses := s.Cache().Stats()
	b.rep.set("facade.cache_hit_frac", frac(float64(hits-hits0), float64(hits-hits0+misses-misses0)))
	return b.setKeyCost(s, locs, spec)
}

// setKeyCost reports the median cost of Session.ProblemKey at the
// workload's dimension.
func (b *bench) setKeyCost(s *parmvn.Session, locs []parmvn.Point, spec parmvn.KernelSpec) error {
	var us []float64
	for i := 0; i < 50; i++ {
		t0 := time.Now()
		if _, err := s.ProblemKey(locs, spec); err != nil {
			return err
		}
		us = append(us, float64(time.Since(t0))/1e3)
	}
	b.rep.set("facade.key_us.p50", median(us))
	return nil
}

// setFootprint reports the cached factor's memory shape.
func (b *bench) setFootprint(s *parmvn.Session, locs []parmvn.Point, spec parmvn.KernelSpec) error {
	fp, err := s.FactorFootprint(locs, spec)
	if err != nil {
		return err
	}
	b.rep.set("engine.factor_mib", float64(fp.Bytes)/(1<<20))
	b.rep.set("engine.lowrank_tiles", float64(fp.LowRank))
	b.rep.set("engine.max_rank", float64(fp.MaxRank))
	return nil
}

// relClose reports |got − want| ≤ tol·|want| (exact equality for want = 0).
func relClose(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Abs(want)
}

// withinBar reports got within z of its own reported standard error of
// want, or within relTol of it when the error bar is tighter than that.
func withinBar(got, want, stderr, z, relTol float64) bool {
	return math.Abs(got-want) <= math.Max(z*stderr, relTol*math.Abs(want))
}
