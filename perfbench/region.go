package main

import (
	"fmt"
	"math"
	"time"

	"repro"
)

// region-detect: the paper's confidence-region application. Each op is one
// DetectRegion on a fresh seeded kernel range and a seeded smooth mean
// field (a bump whose excursion region covers a nontrivial share of the
// grid). It is the only workload on the explicit-Σ path: dense Σ assembly,
// correlation, TLR compression and factorization of Σ, then batched prefix
// probabilities.
const (
	regionSLO  = 3000 // ms
	regionU    = 0.0  // excursion threshold
	regionConf = 0.9  // confidence level 1−α
	// regionTol excuses region disagreements at locations whose reference
	// confidence value lies this close to regionConf (within QMC error).
	regionTol = 0.01
)

type regionInput struct {
	rng  float64
	mean []float64
}

func (b *bench) regionInput(locs []parmvn.Point) regionInput {
	cx, cy := 0.4+0.2*b.rng.Float64(), 0.4+0.2*b.rng.Float64()
	mean := make([]float64, len(locs))
	for i, p := range locs {
		d2 := (p.X-cx)*(p.X-cx) + (p.Y-cy)*(p.Y-cy)
		mean[i] = 5*math.Exp(-d2/(2*0.2*0.2)) - 1
	}
	return regionInput{rng: b.jitter(canonRange, 0.1), mean: mean}
}

func runRegion(b *bench) error {
	locs := parmvn.Grid(b.sz.regionGrid, b.sz.regionGrid)
	cfg := b.sessionConfig(parmvn.TLR, b.sz.regionQMC, 1)
	detect := func(s *parmvn.Session, in regionInput) (*parmvn.Excursion, error) {
		return s.DetectRegion(locs, canonKernel(in.rng), in.mean, regionU, regionConf, b.sz.regionF)
	}
	// The warm-up input is drawn before the set-ups so every set-up does
	// the same work.
	warm := b.regionInput(locs)
	sess, err := timeSetups(b, func() (*parmvn.Session, error) {
		s := parmvn.NewSession(cfg)
		if _, err := detect(s, warm); err != nil {
			s.Close()
			return nil, err
		}
		s.Cache().Purge()
		return s, nil
	}, func(s *parmvn.Session) { s.Close() })
	if err != nil {
		return err
	}
	defer sess.Close()

	type outcome struct {
		in  regionInput
		ex  *parmvn.Excursion
		err error
	}
	var outs []outcome
	lat := &opLatencies{slo: regionSLO}
	var detectS []float64
	settle()
	before := snapshot(sess)
	hits0, misses0 := sess.Cache().Stats()
	start, end := time.Now(), b.deadline()
	for op := 0; time.Now().Before(end); op++ {
		in := b.regionInput(locs)
		sess.Cache().Purge()
		// Untimed: every op starts from a collected heap returned to the
		// OS, so its peak RSS is its own, not what the last op left.
		settle()
		b.rss.opStart()
		traced := b.tr != nil && op%2 == 1
		var ex *parmvn.Excursion
		var err error
		t0 := time.Now()
		if traced {
			// One span around the same call untraced ops make, so the two
			// do the same work.
			root := b.tr.reserve("op", op, -1)
			b.tr.call("excursion:DetectRegion", op, root, func() {
				f0 := time.Now()
				ex, err = detect(sess, in)
				detectS = append(detectS, time.Since(f0).Seconds())
			})
			b.tr.finish(root)
		} else {
			ex, err = detect(sess, in)
		}
		lat.add(time.Since(t0), traced, err == nil)
		b.rss.opEnd()
		outs = append(outs, outcome{in, ex, err})
	}
	wall := time.Since(start)
	b.setPeakRSS()

	if b.tr != nil {
		d := delta(before, snapshot(sess))
		b.setSched(d, wall, len(outs))
		per := 1 / float64(len(outs))
		// The covariance DetectRegion assembles inside the op, timed on
		// the first ops' inputs after the timed section; CovarianceMatrix
		// also copies it into rows, which the op does not.
		var assembleS []float64
		for _, o := range outs[:min(len(outs), b.sz.checkOps)] {
			f0 := time.Now()
			parmvn.CovarianceMatrix(locs, canonKernel(o.in.rng))
			assembleS = append(assembleS, time.Since(f0).Seconds())
		}
		b.rep.set("excursion.assemble_s", median(assembleS))
		b.rep.set("excursion.detect_s", median(detectS))
		b.rep.set("excursion.factor_busy_s", d.factorBusy().Seconds()*per)
		b.rep.set("excursion.prefix_busy_s", (d.totalBusy()-d.factorBusy()).Seconds()*per)
		size := 0.0
		for _, o := range outs {
			if o.ex != nil {
				size += float64(len(o.ex.Region))
			}
		}
		b.rep.set("excursion.region_size", size*per)
		if err := b.setFacade(sess, locs, canonKernel(canonRange), hits0, misses0); err != nil {
			return err
		}
		b.rep.setTrace(b.tr.summarize(), lat.untraced)
	}

	// The first checkOps ops are checked against the dense factor's region
	// on the same inputs and QMC settings; every op must succeed.
	dense := parmvn.NewSession(b.sessionConfig(parmvn.Dense, b.sz.regionQMC, 1))
	defer dense.Close()
	checked := 0
	for i, o := range outs {
		b.rep.attempted++
		if o.err != nil {
			b.rep.failed++
			b.rep.note("op error: %v", o.err)
			continue
		}
		if i >= b.sz.checkOps {
			continue
		}
		checked++
		dense.Cache().Purge()
		ref, err := detect(dense, o.in)
		if err != nil {
			return fmt.Errorf("dense reference: %w", err)
		}
		got, want := o.ex.InRegion(len(locs)), ref.InRegion(len(locs))
		bad := 0
		for j := range got {
			if got[j] != want[j] && math.Abs(ref.F[j]-regionConf) > regionTol {
				bad++
			}
		}
		lat.ok[i] = b.rep.check(bad == 0, "region-detect op %d: %d locations disagree with the dense region (sizes %d vs %d)", i, bad, len(o.ex.Region), len(ref.Region))
	}
	b.setLatency(lat)
	b.rep.note("checked %d ops against the dense region (locations within %g of conf %g excused)", checked, regionTol, regionConf)
	return nil
}
