package ar

import (
	"repro/internal/bulk"
	"repro/internal/bwd"
	"repro/internal/device"
	"repro/internal/par"
)

// Grouping is the result of an approximate (pre-)grouping (§IV-E): a dense
// group ID per candidate, positionally aligned with the candidate set —
// the MonetDB representation of groupings — plus the distinct
// approximation codes in first-appearance order.
type Grouping struct {
	Src     *Candidates
	Col     *bwd.Column
	IDs     []uint32 // group id per candidate position
	NGroups int
	Codes   []uint64 // Codes[g] is the approximation code of group g
	shipped bool
}

// GroupApprox hash-groups the candidates by the approximation codes of col
// on the device. The cost model charges the massively parallel hash
// build's write-conflict serialization: with G groups and L device lanes,
// concurrent lanes collide on the same group entry at a rate proportional
// to L/G, which is why "performance improves with the number of groups due
// to fewer write conflicts on the grouping table" (§VI-B, Fig 8f).
//
// If col is fully device resident, the approximate grouping is already the
// exact grouping of the candidate set (§IV-E: low-cardinality grouping
// columns compress enough to stay resident, eliminating subgrouping).
func GroupApprox(m *device.Meter, col *bwd.Column, cands *Candidates) *Grouping {
	codes := cands.CodesFor(col)
	if codes == nil {
		p := ProjectApprox(m, col, cands)
		codes = p.Codes
	}
	idx := make(map[uint64]uint32, 64)
	ids := make([]uint32, len(codes))
	var uniq []uint64
	for i, c := range codes {
		g, ok := idx[c]
		if !ok {
			g = uint32(len(uniq))
			idx[c] = g
			uniq = append(uniq, c)
		}
		ids[i] = g
	}
	if m != nil {
		n := int64(len(codes))
		lanes := float64(m.System().GPU.Threads)
		groups := float64(len(uniq))
		if groups < 1 {
			groups = 1
		}
		// Serialized atomic updates: with L lanes spread over G group
		// entries, L/G lanes contend for the same entry on average, so
		// each tuple's write waits behind that many serialized updates.
		depth := lanes / groups
		if depth > lanes {
			depth = lanes
		}
		if depth < 1 {
			depth = 1
		}
		conflictOps := int64(float64(n) * depth)
		seq := packedBytes(len(codes), col.Dec.ApproxBits) + n*4
		m.GPUKernel(seq, 0, n*bulk.OpsHashGroup+conflictOps)
	}
	return &Grouping{Src: cands, Col: col, IDs: ids, NGroups: len(uniq), Codes: uniq}
}

// Ship charges the transfer of the per-candidate group IDs to the host.
func (g *Grouping) Ship(m *device.Meter) {
	if g.shipped {
		return
	}
	g.shipped = true
	if m != nil {
		m.Transfer(int64(len(g.IDs))*4 + int64(g.NGroups)*8)
	}
}

// GroupRefine produces the exact grouping of the refined candidate subset.
//
// When the grouping column is fully device resident, the pre-grouping is
// already exact: the refinement only eliminates the false positives
// introduced by earlier operators, via a translucent join of the refined
// IDs into the pre-grouping (§IV-E, Fig 4's Grouping/Aggregation panel).
// Otherwise the CPU regroups on reconstructed exact values — the paper's
// observation that MonetDB's positional grouping representation cannot
// profit from a physical pre-grouping.
//
// Morsel-parallel execution: the exact-pre-grouping path densifies surviving
// group IDs with block-partial first-appearance remapping (identical order
// to the serial pass), and the decomposed path reconstructs keys per-morsel
// before regrouping with the parallel GroupBy.
func GroupRefine(p par.P, m *device.Meter, g *Grouping, refined *Candidates) (*bulk.Grouping, error) {
	if g.Col.Dec.ResBits == 0 {
		pos, err := TranslucentJoinMetered(p, m, g.Src.IDs, refined.IDs)
		if err != nil {
			return nil, err
		}
		// Pass the exact pre-grouping through, dropping groups emptied by
		// false-positive elimination.
		old := make([]uint32, len(pos))
		p.For(len(pos), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				old[i] = g.IDs[pos[i]]
			}
		})
		ids, order := remapFirstAppearance(p, old, g.NGroups)
		keys := make([]int64, len(order))
		for newID, oldID := range order {
			keys[newID] = g.Col.Dec.Base + int64(g.Codes[oldID])
		}
		if m != nil {
			m.CPUWork(p.NThreads(), int64(len(pos))*8, 0, int64(len(pos)))
		}
		return &bulk.Grouping{IDs: ids, NGroups: len(keys), Keys: keys}, nil
	}
	// Decomposed grouping column: re-derive each surviving tuple's exact
	// key from the pre-grouping's code (translucent join back into the
	// candidate alignment) and the host-resident residual, then regroup.
	pos, err := TranslucentJoinMetered(p, m, g.Src.IDs, refined.IDs)
	if err != nil {
		return nil, err
	}
	vals := make([]int64, len(pos))
	p.For(len(pos), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			code := g.Codes[g.IDs[pos[i]]]
			var r uint64
			if g.Col.Dec.ResBits > 0 {
				r = g.Col.Residual.Get(int(refined.IDs[i]))
			}
			vals[i] = g.Col.ReconstructFrom(code, r)
		}
	})
	if m != nil {
		m.CPUWork(p.NThreads(), int64(len(pos))*12,
			int64(len(pos))*residualBytes(g.Col.Dec.ResBits), int64(len(pos)))
	}
	return bulk.GroupBy(p, m, vals), nil
}

// remapFirstAppearance densifies a stream of old group IDs (dense in
// [0,nOld)) into new IDs assigned in order of first appearance, exactly as
// a serial left-to-right scan would. Each worker records the appearance
// order within its contiguous block; merging the block lists left to right
// yields the global order, so the result is identical for every worker
// count. order maps new ID -> old ID.
func remapFirstAppearance(p par.P, old []uint32, nOld int) (ids []uint32, order []uint32) {
	ids = make([]uint32, len(old))
	if p.NWorkers() <= 1 || len(old) < 1024 {
		remap := make([]int32, nOld)
		for i := range remap {
			remap[i] = -1
		}
		for i, o := range old {
			if remap[o] < 0 {
				remap[o] = int32(len(order))
				order = append(order, o)
			}
			ids[i] = uint32(remap[o])
		}
		return ids, order
	}
	blocks := p.Blocks(len(old))
	type partial struct {
		seen   []int32 // old id -> local id, -1 when unseen
		firsts []uint32
	}
	parts := make([]partial, len(blocks))
	par.RunBlocks(p, len(old), func(b, lo, hi int) {
		pt := &parts[b]
		if pt.seen == nil {
			pt.seen = make([]int32, nOld)
			for i := range pt.seen {
				pt.seen[i] = -1
			}
		}
		for i := lo; i < hi; i++ {
			o := old[i]
			if pt.seen[o] < 0 {
				pt.seen[o] = int32(len(pt.firsts))
				pt.firsts = append(pt.firsts, o)
			}
			ids[i] = uint32(pt.seen[o])
		}
	})
	global := make([]int32, nOld)
	for i := range global {
		global[i] = -1
	}
	remap := make([][]uint32, len(blocks))
	for b := range parts {
		remap[b] = make([]uint32, len(parts[b].firsts))
		for localID, o := range parts[b].firsts {
			if global[o] < 0 {
				global[o] = int32(len(order))
				order = append(order, o)
			}
			remap[b][localID] = uint32(global[o])
		}
	}
	size := blocks[0].Hi - blocks[0].Lo
	p.For(len(old), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			b := i / size
			if b >= len(blocks) {
				b = len(blocks) - 1
			}
			ids[i] = remap[b][ids[i]]
		}
	})
	return ids, order
}
