package main

import (
	"fmt"
	"os"
	"time"

	"repro"
)

// cold-tlr: every op factorizes. Each op is a cold MVNProbOpts on the
// canonical problem with a short fixed-N query; the factor cache is purged,
// untimed, before each op. The op cycles through a seeded pool of kernel
// ranges in seeded order, so every run sees the same mix of ranks.
const (
	coldSLO = 4000 // ms
	// coldTol bounds |TLR − dense| / dense on the same QMC points; the two
	// factors differ by the TLR tolerance (1e-7), far below it.
	coldTol = 1e-3
)

func runCold(b *bench) error {
	locs := parmvn.Grid(b.sz.grid, b.sz.grid)
	n := len(locs)
	// The pool spans ±10% around the canonical range at fixed steps, each
	// jittered slightly by the seed: every seed sees the same spread of
	// ranks.
	ranges := make([]float64, b.sz.coldPool)
	for i := range ranges {
		step := 0.2 * (float64(i)/float64(max(len(ranges)-1, 1)) - 0.5)
		ranges[i] = b.jitter(canonRange*(1+step), 0.02)
	}
	a, bb := lowerBox(n, n, b.jitter(-1, 0.02))
	cfg := b.sessionConfig(parmvn.TLR, b.sz.coldQMC, 1)
	query := func(s *parmvn.Session, rng float64) (parmvn.Result, error) {
		return s.MVNProbOpts(locs, canonKernel(rng), a, bb, parmvn.QueryOpts{})
	}

	sess, err := timeSetups(b, func() (*parmvn.Session, error) {
		s := parmvn.NewSession(cfg)
		// One cold op brings the buffer pools and the heap to steady state.
		if _, err := query(s, ranges[0]); err != nil {
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
		rng float64
		res parmvn.Result
		err error
	}
	var outs []outcome
	lat := &opLatencies{slo: coldSLO}
	var factorS []float64
	settle()
	hits0, misses0 := sess.Cache().Stats()
	before := snapshot(sess)
	start, end := time.Now(), b.deadline()
	var order []int
	for op := 0; time.Now().Before(end); op++ {
		if len(order) == 0 {
			order = b.rng.Perm(len(ranges))
		}
		rng := ranges[order[0]]
		order = order[1:]
		sess.Cache().Purge()
		// Untimed: every op starts from a collected heap returned to the
		// OS, so its peak RSS is its own, not what the last op left.
		settle()
		b.rss.opStart()
		traced := b.tr != nil && op%2 == 1
		var res parmvn.Result
		var err error
		t0 := time.Now()
		if traced {
			root := b.tr.reserve("op", op, -1)
			b.tr.call("engine:Prefactorize", op, root, func() {
				f0 := time.Now()
				err = sess.Prefactorize(locs, canonKernel(rng))
				factorS = append(factorS, time.Since(f0).Seconds())
			})
			if err == nil {
				b.tr.call("mvn:MVNProbOpts", op, root, func() { res, err = query(sess, rng) })
			}
			b.tr.finish(root)
		} else {
			res, err = query(sess, rng)
		}
		lat.add(time.Since(t0), traced, err == nil)
		b.rss.opEnd()
		outs = append(outs, outcome{rng, res, err})
	}
	wall := time.Since(start)
	b.setPeakRSS()

	if b.tr != nil {
		b.setSched(delta(before, snapshot(sess)), wall, len(outs))
		b.rep.set("engine.factorize_s.p50", median(factorS))
		if err := b.setFacade(sess, locs, canonKernel(outs[len(outs)-1].rng), hits0, misses0); err != nil {
			return err
		}
		if err := b.setFootprint(sess, locs, canonKernel(outs[len(outs)-1].rng)); err != nil {
			return err
		}
		b.rep.setTrace(b.tr.summarize(), lat.untraced)
		if err := b.coldExtras(cfg, locs, ranges[0], median(factorS)); err != nil {
			return err
		}
	}

	// Check every op against the dense factor's answer on the same QMC
	// points (one dense reference per kernel range).
	dense := parmvn.NewSession(b.sessionConfig(parmvn.Dense, b.sz.coldQMC, 1))
	defer dense.Close()
	refs := map[float64]float64{}
	for i, o := range outs {
		b.rep.attempted++
		if o.err != nil {
			b.rep.failed++
			b.rep.note("op error: %v", o.err)
			continue
		}
		want, ok := refs[o.rng]
		if !ok {
			dense.Cache().Purge()
			ref, err := query(dense, o.rng)
			if err != nil {
				return fmt.Errorf("dense reference: %w", err)
			}
			want, refs[o.rng] = ref.Prob, ref.Prob
		}
		lat.ok[i] = b.rep.check(relClose(o.res.Prob, want, coldTol), "cold-tlr range %g: TLR %g vs dense %g", o.rng, o.res.Prob, want)
	}
	b.setLatency(lat)
	b.rep.note("checked %d ops against %d dense references (relative tolerance %g)", len(outs), len(refs), coldTol)
	return nil
}

// coldExtras runs the traced run's extra passes: the 1-worker factorization
// behind taskrt.speedup, and one cold op with the runtime's task trace on.
func (b *bench) coldExtras(cfg parmvn.Config, locs []parmvn.Point, rng, factorP50 float64) error {
	one := cfg
	one.Workers = 1
	s1 := parmvn.NewSession(one)
	t0 := time.Now()
	err := s1.Prefactorize(locs, canonKernel(rng))
	t1 := time.Since(t0).Seconds()
	s1.Close()
	if err != nil {
		return fmt.Errorf("1-worker factorization: %w", err)
	}
	b.rep.set("taskrt.speedup", t1/factorP50)
	b.rep.note("factorize %.4g s at 1 worker, %.4g s (p50) at %d workers", t1, factorP50, b.workers)

	path := b.outPath("tasktrace", "json")
	if path == "" {
		return nil
	}
	st := parmvn.NewSession(cfg)
	defer st.Close()
	st.EnableTracing()
	if err := st.Prefactorize(locs, canonKernel(rng)); err != nil {
		return fmt.Errorf("traced factorization: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create task trace: %w", err)
	}
	if err := st.WriteTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("write task trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close task trace: %w", err)
	}
	b.rep.note("task trace of one cold factorization: %s", path)
	return nil
}
