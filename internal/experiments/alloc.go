package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/ar"
	"repro/internal/bat"
	"repro/internal/bwd"
	"repro/internal/mem"
	"repro/internal/par"
)

// The alloc experiment measures the host-side cost this repo actually
// pays — real wall-clock, heap allocations and GC pauses of the A&R scan
// hot path — rather than simulated device time. Three configurations:
//
//   - baseline: the pre-arena kernel shape — per-element bitpack.Get
//     decode and fresh slices on every morsel (what every query allocated
//     before the word-parallel/zero-allocation rework);
//   - pooled: the current kernels with the morsel arena on;
//   - unpooled: the current kernels with the arena disabled (word-parallel
//     decode still on), isolating the allocator's share of the win.
//
// Each runs at 1 thread and at NumCPU. The headline number is the
// baseline/pooled wall-clock ratio at NumCPU — the end-to-end speedup of
// the rework on the micro A&R scan.

// AllocStats is the memory-discipline record of one configuration.
type AllocStats struct {
	Label            string  `json:"label"`
	Pooled           bool    `json:"pooled"`
	Threads          int     `json:"threads"`
	Reps             int     `json:"reps"`
	WallSecondsPerOp float64 `json:"wall_seconds_per_op"`
	AllocsPerOp      float64 `json:"allocs_per_op"`
	BytesPerOp       float64 `json:"bytes_per_op"`
	GCPauseSeconds   float64 `json:"gc_pause_seconds"`
	GCCycles         uint32  `json:"gc_cycles"`
}

// measureAlloc runs fn reps times and returns wall/alloc/GC figures from
// runtime.MemStats deltas.
func measureAlloc(label string, pooled bool, threads, reps int, fn func()) AllocStats {
	fn() // warm caches, pools and the page heap outside the window
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < reps; i++ {
		fn()
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	return AllocStats{
		Label:            label,
		Pooled:           pooled,
		Threads:          threads,
		Reps:             reps,
		WallSecondsPerOp: wall.Seconds() / float64(reps),
		AllocsPerOp:      float64(m1.Mallocs-m0.Mallocs) / float64(reps),
		BytesPerOp:       float64(m1.TotalAlloc-m0.TotalAlloc) / float64(reps),
		GCPauseSeconds:   time.Duration(m1.PauseTotalNs - m0.PauseTotalNs).Seconds(),
		GCCycles:         m1.NumGC - m0.NumGC,
	}
}

// baselineARScan is the pre-rework kernel shape, kept as the measurement
// baseline: per-element packed decode and a fresh slice per morsel, for
// both the approximate scan and the refinement.
func baselineARScan(p par.P, col *bwd.Column, lo, hi int64) int {
	r := col.Relax(lo, hi)
	ids := par.GatherOrdered(p, col.Len(), func(mlo, mhi int) []bat.OID {
		part := make([]bat.OID, 0, mhi-mlo)
		for i := mlo; i < mhi; i++ {
			if r.Contains(col.Approx.Get(i)) {
				part = append(part, bat.OID(i))
			}
		}
		return part
	})
	exact := par.GatherOrdered(p, len(ids), func(mlo, mhi int) []int64 {
		part := make([]int64, 0, mhi-mlo)
		for _, id := range ids[mlo:mhi] {
			if v := col.Reconstruct(int(id)); v >= lo && v <= hi {
				part = append(part, v)
			}
		}
		return part
	})
	return len(exact)
}

// arScan is the current hot path: word-parallel approximate select,
// region-compacted refinement, every buffer returned to the arena.
func arScan(p par.P, col *bwd.Column, lo, hi int64) int {
	cands := ar.SelectApprox(nil, col, col.Relax(lo, hi))
	refined, vals := ar.SelectRefine(p, nil, col, lo, hi, cands)
	n := len(vals)
	mem.I64.Put(vals)
	refined.Release()
	cands.Release()
	return n
}

// Alloc measures the host memory discipline of the A&R scan (see the
// package comment above). The figure carries one AllocStats row per
// configuration; the notes carry the headline speedups.
func Alloc(opts Options) (*Figure, error) {
	col, err := bwd.Decompose(microData(opts), 14, nil)
	if err != nil {
		return nil, err
	}
	lo, hi := int64(0), int64(MicroDomain/10) // ~10 % qualify
	ncpu := runtime.NumCPU()
	reps := 12_000_000/opts.MicroN + 2

	fig := &Figure{
		ID:     "alloc",
		Title:  fmt.Sprintf("host memory discipline, A&R scan of %d rows", opts.MicroN),
		XLabel: "configuration",
		YLabel: "wall s/op",
	}
	threadSet := []int{1}
	if ncpu > 1 {
		threadSet = append(threadSet, ncpu)
	}
	var base1, baseN, pool1, poolN AllocStats
	for _, threads := range threadSet {
		p := par.P{Threads: threads}
		b := measureAlloc(fmt.Sprintf("baseline get/alloc t=%d", threads), false, threads, reps,
			func() { baselineARScan(p, col, lo, hi) })
		u := func() AllocStats {
			prev := mem.SetPooling(false)
			defer mem.SetPooling(prev)
			return measureAlloc(fmt.Sprintf("word-parallel unpooled t=%d", threads), false, threads, reps,
				func() { arScan(p, col, lo, hi) })
		}()
		o := measureAlloc(fmt.Sprintf("word-parallel pooled t=%d", threads), true, threads, reps,
			func() { arScan(p, col, lo, hi) })
		fig.Alloc = append(fig.Alloc, b, u, o)
		if threads == 1 {
			base1, pool1 = b, o
		}
		if threads == ncpu {
			baseN, poolN = b, o
		}
	}
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("speedup (baseline/pooled) at 1 thread: %.2fx", base1.WallSecondsPerOp/pool1.WallSecondsPerOp))
	if ncpu > 1 {
		fig.Notes = append(fig.Notes,
			fmt.Sprintf("speedup (baseline/pooled) at %d threads (NumCPU): %.2fx", ncpu, baseN.WallSecondsPerOp/poolN.WallSecondsPerOp))
	}
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("allocs/op pooled at %d threads: %.1f (baseline %.0f)", ncpu, poolN.AllocsPerOp, baseN.AllocsPerOp))
	return fig, nil
}
