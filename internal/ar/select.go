package ar

import (
	"repro/internal/bat"
	"repro/internal/bwd"
	"repro/internal/device"
	"repro/internal/mem"
	"repro/internal/par"
)

// gpuChunk is the tuple count per simulated device work-group.
const gpuChunk = 64 << 10

// OpsPackedScan is the per-tuple operation count of a JIT-generated packed
// selection kernel: unpacking a bit-packed code straddling word boundaries,
// masking, shifting and evaluating the relaxed predicate. It makes wide
// scans compute-bound on the device, which is what the paper's untuned
// kernels observably were (their approximation times barely vary with the
// packed width, Fig 8c).
const OpsPackedScan = 6

// SelectApprox is the approximation of a selection on a bitwise decomposed
// column (§IV-B): the device scans the bit-packed approximation with the
// relaxed predicate r and emits every tuple whose approximation code
// matches — a superset of the exact result. The output order is a
// deterministic permutation of the input order, modelling the
// non-order-preserving massively parallel kernel (§IV-A item 3).
//
// The candidate codes ride along with the IDs; they are the host's only
// view of the device-resident major bits once the candidates are shipped.
//
// Host-side, the scan is word-parallel and allocation-free: each worker
// decodes a work-group into its morsel scratch with bitpack.UnpackRange
// (word-at-a-time instead of branch-and-shift per element), writes matches
// into its own disjoint region of arena buffers, and the regions are
// concatenated in the deterministic device permutation.
func SelectApprox(m *device.Meter, col *bwd.Column, r bwd.ApproxRange) *Candidates {
	n := col.Len()
	c := getCandidates()
	total := 0
	if !r.Empty && n > 0 {
		nchunks := (n + gpuChunk - 1) / gpuChunk
		idsBuf := oidPool.GetN(n)
		codesBuf := mem.U64.GetN(n)
		counts := mem.Ints.GetN(nchunks)
		if nchunks == 1 {
			// One work-group: run it on the calling goroutine without
			// materializing a closure, keeping the scan allocation-free.
			s := mem.GetScratch()
			counts[0] = scanGroup(s, col, r, idsBuf, codesBuf, 0, n)
			mem.PutScratch(s)
		} else {
			par.ForScratch(n, gpuChunk, 0, func(s *mem.Scratch, lo, hi int) {
				counts[lo/gpuChunk] = scanGroup(s, col, r, idsBuf, codesBuf, lo, hi)
			})
		}
		for _, cnt := range counts {
			total += cnt
		}
		// Concatenate the per-group regions in the deterministic shuffled
		// completion order — the unordered device discipline.
		order := par.PermuteInto(mem.Ints.GetN(nchunks))
		ids := oidPool.GetN(total)
		codes := mem.U64.GetN(total)
		off := 0
		for _, ci := range order {
			cnt := counts[ci]
			lo := ci * gpuChunk
			copy(ids[off:off+cnt], idsBuf[lo:lo+cnt])
			copy(codes[off:off+cnt], codesBuf[lo:lo+cnt])
			off += cnt
		}
		mem.Ints.Put(order)
		mem.Ints.Put(counts)
		oidPool.Put(idsBuf)
		mem.U64.Put(codesBuf)
		c.IDs = ids
		c.attach = append(c.attach, attachment{col: col, codes: codes, rng: r, filtered: true})
	} else {
		c.IDs = oidPool.GetN(0)
		c.attach = append(c.attach, attachment{col: col, codes: mem.U64.GetN(0), rng: r, filtered: true})
	}
	if m != nil {
		scanned := col.Approx.Bytes()
		written := int64(total)*4 + packedBytes(total, col.Dec.ApproxBits)
		m.GPUKernel(scanned+written, 0, int64(n)*OpsPackedScan)
	}
	return c
}

// scanGroup decodes one device work-group [lo,hi) into the worker scratch
// and writes the matching (id, code) pairs into the group's disjoint
// region of the output buffers, returning the match count.
func scanGroup(s *mem.Scratch, col *bwd.Column, r bwd.ApproxRange, idsBuf []bat.OID, codesBuf []uint64, lo, hi int) int {
	dec := col.Approx.UnpackRange(s.U64(hi - lo)[:0], lo, hi)
	cnt := 0
	for j, code := range dec {
		if r.Contains(code) {
			idsBuf[lo+cnt] = bat.OID(lo + j)
			codesBuf[lo+cnt] = code
			cnt++
		}
	}
	return cnt
}

// SelectApproxOver narrows an existing candidate set with a further relaxed
// predicate on another column (conjunctive selections, e.g. the two
// BETWEENs of the spatial range query). The device gathers col's codes at
// the candidate positions and keeps the matches, preserving candidate
// order so later translucent joins remain valid.
func SelectApproxOver(m *device.Meter, col *bwd.Column, r bwd.ApproxRange, in *Candidates) *Candidates {
	keep := mem.Ints.Get(len(in.IDs))
	codes := mem.U64.Get(len(in.IDs))
	if !r.Empty {
		for i, id := range in.IDs {
			code := col.Approx.Get(int(id))
			if r.Contains(code) {
				keep = append(keep, i)
				codes = append(codes, code)
			}
		}
	}
	out := in.filterTo(keep)
	out.shipped = false // a fresh device-side intermediate
	out.attach = append(out.attach, attachment{col: col, codes: codes, rng: r, filtered: true})
	if m != nil {
		n := len(in.IDs)
		seq := int64(n)*4 + int64(len(keep))*4 + packedBytes(len(keep), col.Dec.ApproxBits)
		m.GPUKernel(seq, packedBytes(n, col.Dec.ApproxBits), int64(n)*OpsPackedScan)
	}
	mem.Ints.Put(keep)
	return out
}

// SelectRefine is the refinement of a selection (Algorithm 2): on the CPU,
// each candidate's exact value is reconstructed by bitwise concatenation
// of its shipped approximation code and its host-resident residual, the
// precise predicate lo <= v <= hi is re-evaluated, and false positives are
// eliminated. The translucent join with the residual and the re-evaluation
// are fused into one loop, as the paper prescribes; because the residual
// is a persistent column with dense IDs, that join takes the invisible
// (positional) fast path.
//
// The result preserves candidate order and compacts every attached code
// column, so further refinements on other columns can run directly on it.
// The exact values of col for the surviving candidates are returned
// alongside.
//
// Morsel-parallel execution: morsels reconstruct and re-evaluate
// independently, each writing survivors into its own disjoint region of
// arena buffers (positions and values stay aligned), and the regions left-
// pack in morsel order — the same candidate order as the serial loop, with
// zero allocations in steady state. The returned value slice is arena-
// backed; ownership passes to the caller.
func SelectRefine(p par.P, m *device.Meter, col *bwd.Column, lo, hi int64, in *Candidates) (*Candidates, []int64) {
	codes := in.CodesFor(col)
	if codes == nil {
		panic("ar: SelectRefine on a column that was never approximated over these candidates")
	}
	n := len(in.IDs)
	keepBuf := mem.Ints.GetN(n)
	valsBuf := mem.I64.GetN(n)
	chunk := p.ChunkSize()
	nchunks := (n + chunk - 1) / chunk
	var counts []int
	var err error
	if p.NWorkers() <= 1 {
		// Single worker: run the morsels on the calling goroutine without
		// materializing a closure — the refinement's steady state allocates
		// nothing.
		counts = mem.Ints.GetN(nchunks)
		for ci := 0; ci < nchunks; ci++ {
			if err = p.Cancelled(); err != nil {
				break
			}
			mlo := ci * chunk
			mhi := mlo + chunk
			if mhi > n {
				mhi = n
			}
			counts[ci] = refineMorsel(col, codes, in.IDs, lo, hi, keepBuf, valsBuf, mlo, mhi)
		}
		if err != nil {
			mem.Ints.Put(counts)
			counts = nil
		}
	} else {
		counts, _, err = par.ForCounted(p, n, func(_ *mem.Scratch, _, mlo, mhi int) int {
			return refineMorsel(col, codes, in.IDs, lo, hi, keepBuf, valsBuf, mlo, mhi)
		})
	}
	var keep []int
	var vals []int64
	if err != nil {
		// Cancelled mid-pass: the executor discards the result at its next
		// checkpoint, so an empty survivor set stands in for the partial.
		keep, vals = keepBuf[:0], valsBuf[:0]
	} else {
		keep = par.Compact(counts, chunk, keepBuf)
		vals = par.Compact(counts, chunk, valsBuf)
		mem.Ints.Put(counts)
	}
	out := in.filterTo(keep)
	mem.Ints.Put(keepBuf)
	if m != nil && col.Dec.ResBits > 0 {
		// §IV-C: fully device-resident data needs no refinement — exact
		// codes admit no false positives, so that case charges nothing
		// (the candidate list already is the result). Otherwise the fused
		// loop streams IDs and codes and touches the residual at candidate
		// order: cache-line-bounded when sparse, array-bounded when dense.
		resFetch := device.RandomFetchBytes(int64(n), residualBytes(col.Dec.ResBits), col.Residual.Bytes())
		seq := int64(n)*4 + packedBytes(n, col.Dec.ApproxBits) +
			resFetch + int64(len(keep))*4
		m.CPUWork(p.NThreads(), seq, 0, int64(n)*2)
	}
	return out, vals
}

// refineMorsel reconstructs and re-evaluates one morsel of candidates,
// writing survivor indices and exact values into the morsel's disjoint
// region [mlo, mlo+count) of the overallocated buffers. A named function
// (not a closure) so the single-worker path allocates nothing.
func refineMorsel(col *bwd.Column, codes []uint64, ids []bat.OID, lo, hi int64, keepBuf []int, valsBuf []int64, mlo, mhi int) int {
	res := col.Residual
	resBits := col.Dec.ResBits
	cnt := 0
	for i := mlo; i < mhi; i++ {
		var r uint64
		if resBits > 0 {
			r = res.Get(int(ids[i]))
		}
		v := col.ReconstructFrom(codes[i], r)
		if v >= lo && v <= hi {
			keepBuf[mlo+cnt] = i
			valsBuf[mlo+cnt] = v
			cnt++
		}
	}
	return cnt
}
