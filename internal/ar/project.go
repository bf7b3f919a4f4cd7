package ar

import (
	"repro/internal/bat"
	"repro/internal/bulk"
	"repro/internal/bwd"
	"repro/internal/device"
	"repro/internal/mem"
	"repro/internal/par"
)

// Projection is the output of an approximate projection: the approximation
// codes of the projected column, positionally aligned with the candidate
// set it was computed over. Exact reports whether the codes are already
// precise (the projected column is fully device resident, ResBits == 0),
// in which case no refinement is necessary (§IV-C).
type Projection struct {
	Src     *Candidates
	Col     *bwd.Column
	Codes   []uint64
	shipped bool
}

// Len returns the number of projected tuples.
func (p *Projection) Len() int { return len(p.Codes) }

// Release returns the projection's code buffer to the arena. The source
// candidate set is not owned by the projection and stays untouched. Must
// only be called once nothing references the projection.
func (p *Projection) Release() {
	mem.U64.Put(p.Codes)
	p.Codes = nil
	p.Src = nil
}

// Exact reports whether the projected codes need no refinement.
func (p *Projection) Exact() bool { return p.Col.Dec.ResBits == 0 }

// ApproxLow returns the smallest value consistent with projected code i.
func (p *Projection) ApproxLow(i int) int64 {
	return p.Col.Dec.Base + int64(p.Codes[i]<<p.Col.Dec.ResBits)
}

// Ship charges the PCI-E transfer of the projected codes to the host. The
// candidate IDs are not re-shipped; they travel with the candidate set.
func (p *Projection) Ship(m *device.Meter) {
	if p.shipped {
		return
	}
	p.shipped = true
	if m != nil {
		m.Transfer(packedBytes(len(p.Codes), p.Col.Dec.ApproxBits))
	}
}

// ProjectApprox is the approximation of a projection (§IV-C): an invisible
// join — a positional lookup of the candidate IDs into the bit-packed,
// device-resident approximation of the projected column. The output is
// aligned with the candidate order, which a parallel projection preserves
// for free because each lane writes at the position of its input id
// (§IV-A item 2).
func ProjectApprox(m *device.Meter, col *bwd.Column, cands *Candidates) *Projection {
	codes := mem.U64.GetN(len(cands.IDs))
	par.For(len(cands.IDs), gpuChunk, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			codes[i] = col.Approx.Get(int(cands.IDs[i]))
		}
	})
	if m != nil {
		n := len(cands.IDs)
		seq := int64(n)*4 + packedBytes(n, col.Dec.ApproxBits)
		m.GPUKernel(seq, packedBytes(n, col.Dec.ApproxBits), int64(n)*bulk.OpsFetch)
	}
	return &Projection{Src: cands, Col: col, Codes: codes}
}

// ProjectApproxAt is ProjectApprox through an indirection: the lookup
// positions are given explicitly (aligned with cands) instead of being the
// candidate IDs themselves. This is the projective foreign-key join of
// §IV-D: with a dense primary key, `at` holds the dimension-table
// positions for each fact-side candidate, and projecting a dimension
// column "via" the join shares this code path.
func ProjectApproxAt(m *device.Meter, col *bwd.Column, cands *Candidates, at []bat.OID) *Projection {
	codes := mem.U64.GetN(len(at))
	par.For(len(at), gpuChunk, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			codes[i] = col.Approx.Get(int(at[i]))
		}
	})
	if m != nil {
		n := len(at)
		seq := int64(n)*4 + packedBytes(n, col.Dec.ApproxBits)
		m.GPUKernel(seq, packedBytes(n, col.Dec.ApproxBits), int64(n)*bulk.OpsFetch)
	}
	return &Projection{Src: cands, Col: col, Codes: codes}
}

// ProjectRefine is the refinement of a projection (§IV-C): a translucent
// join of the refined candidate subset into the approximate projection —
// re-aligning the projected codes with the surviving IDs — followed by
// residual lookups and bitwise reconstruction of the exact values.
//
// refined must be an order-preserving subset of p.Src (which every A&R
// refinement guarantees); otherwise ErrTranslucentPrecondition is
// returned.
//
// Morsel-parallel execution: the translucent join stays a sequential merge
// pass (its cursor is inherently serial), the residual lookups and
// reconstructions fan out over morsels with disjoint output writes.
func ProjectRefine(pp par.P, m *device.Meter, p *Projection, refined *Candidates) ([]int64, error) {
	if p.Exact() && len(refined.IDs) == len(p.Src.IDs) {
		// §IV-C: all bits of the projected attribute are device resident
		// and no candidates were eliminated — the shipped codes already
		// are the exact result (a view, no refinement operator runs).
		out := mem.I64.GetN(len(p.Codes))
		pp.For(len(out), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = p.ApproxLow(i)
			}
		})
		return out, nil
	}
	pos, err := TranslucentJoinMetered(pp, m, p.Src.IDs, refined.IDs)
	if err != nil {
		return nil, err
	}
	out := mem.I64.GetN(len(refined.IDs))
	col := p.Col
	pp.For(len(pos), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			var r uint64
			if col.Dec.ResBits > 0 {
				r = col.Residual.Get(int(refined.IDs[i]))
			}
			out[i] = col.ReconstructFrom(p.Codes[pos[i]], r)
		}
	})
	mem.Ints.Put(pos)
	if m != nil {
		// Reads: refined IDs (32-bit), shipped codes, residuals (at
		// candidate order); writes: reconstructed values at the column's
		// native width.
		n := len(refined.IDs)
		resFetch := device.RandomFetchBytes(int64(n), residualBytes(col.Dec.ResBits), col.Residual.Bytes())
		seq := int64(n)*4 + packedBytes(n, col.Dec.ApproxBits) + resFetch + int64(n)*int64(col.Dec.Width)
		m.CPUWork(pp.NThreads(), seq, 0, int64(n))
	}
	return out, nil
}
