package main

import (
	"math/rand"
	"time"

	"repro/internal/linalg"
	"repro/internal/qmc"
	"repro/internal/stats"
)

// kernels times the leaf kernels at the shapes the workloads run them at:
// GEMM, SYRK and TRSM on square tiles of the factorization's tile size, the
// fused Φ-interval special function on one lane block of the sweep, and
// the QMC lattice filling one lane block. Flop counts and arithmetic
// intensity are computed from the shapes, not measured.
func kernels(b *bench) {
	ts := b.sz.tile
	rng := rand.New(rand.NewSource(b.opt.seed))
	fill := func(m *linalg.Matrix) {
		for i := range m.Data {
			m.Data[i] = rng.Float64() - 0.5
		}
	}
	x, y, c := linalg.NewMatrix(ts, ts), linalg.NewMatrix(ts, ts), linalg.NewMatrix(ts, ts)
	fill(x)
	fill(y)
	// A well-conditioned lower-triangular tile for TRSM.
	l := linalg.NewMatrix(ts, ts)
	for j := 0; j < ts; j++ {
		for i := j; i < ts; i++ {
			l.Data[i+j*l.Stride] = 0.01 * (rng.Float64() - 0.5)
		}
		l.Data[j+j*l.Stride] = 1
	}
	n := float64(ts)
	gemmFlops, syrkFlops, trsmFlops := 2*n*n*n, n*n*(n+1), n*n*n
	b.rep.set("linalg.gemm_gflops", gemmFlops/timeKernel(func() { linalg.Gemm(false, true, -1, x, y, 1, c) })/1e9)
	b.rep.set("linalg.syrk_gflops", syrkFlops/timeKernel(func() { linalg.Syrk(false, -1, x, 1, c) })/1e9)
	b.rep.set("linalg.trsm_gflops", trsmFlops/timeKernel(func() {
		copy(c.Data, y.Data)
		linalg.TrsmLower(linalg.Right, true, 1, l, c)
	})/1e9)
	// GEMM reads A and B and reads and writes C once: 4·n² doubles.
	b.rep.set("linalg.gemm_flop_per_byte", gemmFlops/(4*n*n*8))
	b.rep.note("kernels at tile %d: computed flops gemm %.4g, syrk %.4g, trsm %.4g", ts, gemmFlops, syrkFlops, trsmFlops)

	lanes := ts
	lo, hi, dif, da := make([]float64, lanes), make([]float64, lanes), make([]float64, lanes), make([]float64, lanes)
	for i := range lo {
		lo[i] = 3 * (rng.Float64() - 0.7)
		hi[i] = lo[i] + 2*rng.Float64()
	}
	b.rep.set("stats.phi_interval_ns", timeKernel(func() { stats.PhiIntervalPhiBatch(lo, hi, dif, da) })*1e9/float64(lanes))

	g := qmc.NewRichtmyer(ts)
	blk := linalg.NewMatrix(lanes, ts)
	b.rep.set("qmc.fill_ns", timeKernel(func() { qmc.NextBlock(g, blk, lanes) })*1e9/float64(lanes*ts))
}

// timeKernel returns the median seconds per call of fn over batches that
// each run for at least a few milliseconds.
func timeKernel(fn func()) float64 {
	fn()
	reps := 1
	for {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		if time.Since(t0) > 5*time.Millisecond {
			break
		}
		reps *= 2
	}
	var per []float64
	for k := 0; k < 9; k++ {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		per = append(per, time.Since(t0).Seconds()/float64(reps))
	}
	return median(per)
}
