package main

import (
	"fmt"
	"strings"
	"time"

	"repro"
)

// warm-sweep: the canonical factor is built in set-up; every op is a warm
// MVNProbOpts, so the query sweep, QMC, special functions and the wave
// driver do all the work. Ops cycle through the 12 query classes (regime ×
// sweep precision × fixed-N or budgeted) in seeded order, whole cycles
// only, so every run sees the same mix.
const (
	warmSLO = 1500 // ms
	// warmRelErr is the budgeted classes' relative-error target.
	warmRelErr = 0.01
	// warmTol bounds |TLR − dense| / dense for f64 fixed-N answers on the
	// same QMC points; f32 and budgeted answers must instead lie within
	// warmZ of their own reported standard error (or warmTol).
	warmTol = 1e-3
	warmZ   = 4
)

type warmClass struct {
	name        string
	a, bb       []float64
	f32, budget bool
}

func (c warmClass) opts() parmvn.QueryOpts {
	if c.budget {
		return parmvn.QueryOpts{MaxRelErr: warmRelErr}
	}
	return parmvn.QueryOpts{}
}

type warmState struct{ s64, s32 *parmvn.Session }

func (w warmState) close() {
	w.s64.Close()
	w.s32.Close()
}

func runWarm(b *bench) error {
	locs := parmvn.Grid(b.sz.grid, b.sz.grid)
	n := len(locs)
	spec := canonKernel(canonRange)
	exA, exB := lowerBox(n, n, b.jitter(-1, 0.02))
	prA, prB := lowerBox(n, b.sz.prefix, 0.01*(b.rng.Float64()-0.5))
	wA, wB := wideBox(n, 6)
	boxes := map[string][2][]float64{"excursion": {exA, exB}, "prefix": {prA, prB}, "wide": {wA, wB}}
	var classes []warmClass
	for _, name := range queryClasses {
		parts := strings.Split(name, ".") // regime.precision.driver
		box := boxes[parts[0]]
		classes = append(classes, warmClass{name, box[0], box[1], parts[1] == "f32", parts[2] == "budget"})
	}
	cfg := b.sessionConfig(parmvn.TLR, b.sz.warmQMC, 3)
	cfg32 := cfg
	cfg32.SweepF32 = true

	var factorS []float64
	st, err := timeSetups(b, func() (warmState, error) {
		w := warmState{s64: parmvn.NewSession(cfg), s32: parmvn.NewSession(cfg32)}
		w.s32.ShareCache(w.s64)
		t0 := time.Now()
		if err := w.s64.Prefactorize(locs, spec); err != nil {
			w.close()
			return w, err
		}
		factorS = append(factorS, time.Since(t0).Seconds())
		// One query per precision; the f32 one builds the factor's f32
		// shadow.
		for _, s := range []*parmvn.Session{w.s64, w.s32} {
			if _, err := s.MVNProbOpts(locs, spec, prA, prB, parmvn.QueryOpts{}); err != nil {
				w.close()
				return w, err
			}
		}
		return w, nil
	}, warmState.close)
	if err != nil {
		return err
	}
	defer st.close()

	type outcome struct {
		class int
		res   parmvn.Result
		err   error
	}
	var outs []outcome
	lat := &opLatencies{slo: warmSLO}
	perClass := map[string][]float64{}
	settle()
	hits0, misses0 := st.s64.Cache().Stats()
	before := snapshot(st.s64, st.s32)
	start, end := time.Now(), b.deadline()
	// A cycle runs every class once and the prefix f64 fixed-N class once
	// more: prefix probabilities are the queries confidence-region detection
	// issues most. The op latency reported is each cycle's mean, median
	// over cycles: the classes' latencies differ several-fold, so the median
	// op sat between two classes and jumped with the number of cycles a run
	// completed, which a slightly slower host changed.
	cycle := make([]int, len(classes), len(classes)+1)
	for i, c := range classes {
		cycle[i] = i
		if c.name == "prefix.f64.fixed" {
			cycle = append(cycle, i)
		}
	}
	for op := 0; time.Now().Before(end); {
		b.rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
		var cycleMs float64
		for _, ci := range cycle {
			c := classes[ci]
			s := st.s64
			if c.f32 {
				s = st.s32
			}
			traced := b.tr != nil && op%2 == 1
			var res parmvn.Result
			var err error
			b.rss.opStart()
			t0 := time.Now()
			if traced {
				root := b.tr.reserve("op", op, -1)
				b.tr.call("mvn:MVNProbOpts", op, root, func() { res, err = s.MVNProbOpts(locs, spec, c.a, c.bb, c.opts()) })
				b.tr.finish(root)
			} else {
				res, err = s.MVNProbOpts(locs, spec, c.a, c.bb, c.opts())
			}
			d := time.Since(t0)
			b.rss.opEnd()
			lat.add(d, traced, err == nil)
			cycleMs += float64(d) / 1e6
			perClass[c.name] = append(perClass[c.name], float64(d)/1e6)
			outs = append(outs, outcome{ci, res, err})
			op++
		}
		lat.cycles = append(lat.cycles, cycleMs/float64(len(cycle)))
	}
	wall := time.Since(start)
	b.setPeakRSS()

	if b.tr != nil {
		b.setSched(delta(before, snapshot(st.s64, st.s32)), wall, len(outs))
		b.rep.set("engine.factorize_s.p50", median(factorS))
		for _, c := range classes {
			b.rep.set("mvn.query_ms."+c.name+".p50", median(perClass[c.name]))
		}
		var samples, budgeted, converged float64
		for _, o := range outs {
			samples += float64(o.res.Samples)
			if classes[o.class].budget {
				budgeted++
				if o.res.Converged {
					converged++
				}
			}
		}
		b.rep.set("mvn.samples.mean", samples/float64(len(outs)))
		b.rep.set("mvn.converged_frac", frac(converged, budgeted))
		b.rep.set("mvn.ns_per_sample_dim", frac(float64(lat.wall), samples*float64(n)))
		if err := b.setFacade(st.s64, locs, spec, hits0, misses0); err != nil {
			return err
		}
		if err := b.setFootprint(st.s64, locs, spec); err != nil {
			return err
		}
		b.rep.setTrace(b.tr.summarize(), lat.untraced)
	}

	// Check every op against the dense factor's answer to the same query
	// (same QMC settings and budget, f64 sweep); one reference per class.
	dense := parmvn.NewSession(b.sessionConfig(parmvn.Dense, b.sz.warmQMC, 3))
	defer dense.Close()
	refs := make([]*parmvn.Result, len(classes))
	for i, o := range outs {
		b.rep.attempted++
		if o.err != nil {
			b.rep.failed++
			b.rep.note("op error: %v", o.err)
			continue
		}
		c := classes[o.class]
		if refs[o.class] == nil {
			ref, err := dense.MVNProbOpts(locs, spec, c.a, c.bb, c.opts())
			if err != nil {
				return fmt.Errorf("dense reference: %w", err)
			}
			refs[o.class] = &ref
		}
		want := refs[o.class].Prob
		ok := relClose(o.res.Prob, want, warmTol)
		if c.f32 || c.budget {
			ok = withinBar(o.res.Prob, want, o.res.StdErr, warmZ, warmTol)
		}
		lat.ok[i] = b.rep.check(ok, "warm-sweep %s: TLR %g ± %g vs dense %g", c.name, o.res.Prob, o.res.StdErr, want)
	}
	b.setLatency(lat)
	b.rep.note("checked %d ops against the dense factor's answers to the %d classes", len(outs), len(classes))
	return nil
}
