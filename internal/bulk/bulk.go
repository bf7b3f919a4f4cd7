// Package bulk implements the classic MonetDB-style bulk processing model
// (§II-B of the paper): operators are simple, tight loops without function
// calls in the hot path that fully materialize their results for the next
// operator to pick up. Package bulk is both
//
//   - the CPU-only baseline ("MonetDB" in the paper's charts) that the
//     Approximate & Refine implementation is compared against, and
//   - the refinement substrate: A&R refinement operators run the same tight
//     CPU loops over candidates and residuals.
//
// Every operator has one signature, X(p par.P, m *device.Meter, ...). P
// sets the real worker budget and the simulated thread count the meter is
// charged for; callers that want serial execution pass par.Bill(threads).
// When m is non-nil the operator charges its simulated cost (bytes
// scanned/gathered/written and tuple-ops executed) against the CPU device;
// a nil meter executes without cost accounting. Results are byte-identical
// for every worker count and morsel size: selections concatenate morsel
// outputs in morsel order, and grouping/aggregation build per-worker
// partial states over contiguous blocks that merge in block order,
// preserving first-appearance group order exactly.
package bulk

import (
	"repro/internal/bat"
	"repro/internal/device"
	"repro/internal/mem"
	"repro/internal/par"
)

// oidPool recycles candidate lists through the shared bat.OIDPool arena;
// values and aggregate partials ride the shared mem pools.
var oidPool = &bat.OIDPool

// Per-tuple op weights used for compute-cost charging. A plain comparison
// in a selection loop is the unit; hashing costs several units, matching
// the relative operator costs observable in bulk engines.
// Hash weights reflect measured bulk-engine costs (tens of ns per tuple
// for hash build/group on out-of-cache tables).
const (
	OpsSelect    = 1
	OpsFetch     = 1
	OpsArith     = 1
	OpsAggregate = 1
	OpsHashBuild = 24
	OpsHashProbe = 12
	OpsHashGroup = 12
)

// oidBytes is the physical size the classic engine pays per tuple ID in
// candidate lists: MonetDB v11 BATs carry 64-bit oids on 64-bit builds.
// (The A&R operators ship compact 32-bit IDs across the bus instead; that
// difference is part of the design.)
const oidBytes = 8

// parallelMin is the input size below which the kernels fall back to
// the serial loop even with a multi-worker budget: goroutine fan-out on a
// few thousand rows costs more than it saves. Results are identical either
// way; this is purely a scheduling decision.
const parallelMin = 1 << 10

// serial reports whether p should run the serial loop for n rows.
func serial(p par.P, n int) bool {
	return p.NWorkers() <= 1 || (n < parallelMin && p.Chunk <= 0)
}

// SelectRange returns the positions of b whose value v satisfies
// lo <= v <= hi, in input order (the bulk selection is order-preserving,
// §IV-A item 2). This is MonetDB's uselect.
func SelectRange(p par.P, m *device.Meter, b *bat.BAT, lo, hi int64) []bat.OID {
	tails := b.Tails()
	var out []bat.OID
	if serial(p, len(tails)) {
		out = oidPool.Get(len(tails))
		for i, v := range tails {
			if v >= lo && v <= hi {
				out = append(out, bat.OID(i))
			}
		}
	} else {
		buf := oidPool.GetN(len(tails))
		counts, _, err := par.ForCounted(p, len(tails), func(_ *mem.Scratch, _, mlo, mhi int) int {
			cnt := 0
			for i := mlo; i < mhi; i++ {
				if v := tails[i]; v >= lo && v <= hi {
					buf[mlo+cnt] = bat.OID(i)
					cnt++
				}
			}
			return cnt
		})
		if err != nil {
			out = buf[:0]
		} else {
			out = par.Compact(counts, p.ChunkSize(), buf)
			mem.Ints.Put(counts)
		}
	}
	if m != nil {
		m.CPUWork(p.NThreads(),
			b.TailBytes()+int64(len(out))*oidBytes, 0,
			int64(len(tails))*OpsSelect)
	}
	return out
}

// SelectOIDs filters an existing candidate list: it returns the subset of
// ids whose value in b satisfies lo <= v <= hi, preserving candidate order.
// Access to b is positional (gather).
func SelectOIDs(p par.P, m *device.Meter, b *bat.BAT, ids []bat.OID, lo, hi int64) []bat.OID {
	tails := b.Tails()
	var out []bat.OID
	if serial(p, len(ids)) {
		out = oidPool.Get(len(ids))
		for _, id := range ids {
			if v := tails[id]; v >= lo && v <= hi {
				out = append(out, id)
			}
		}
	} else {
		buf := oidPool.GetN(len(ids))
		counts, _, err := par.ForCounted(p, len(ids), func(_ *mem.Scratch, _, mlo, mhi int) int {
			cnt := 0
			for _, id := range ids[mlo:mhi] {
				if v := tails[id]; v >= lo && v <= hi {
					buf[mlo+cnt] = id
					cnt++
				}
			}
			return cnt
		})
		if err != nil {
			out = buf[:0]
		} else {
			out = par.Compact(counts, p.ChunkSize(), buf)
			mem.Ints.Put(counts)
		}
	}
	if m != nil {
		gather := device.RandomFetchBytes(int64(len(ids)), int64(b.Width()), b.TailBytes())
		m.CPUWork(p.NThreads(),
			int64(len(ids))*oidBytes+int64(len(out))*oidBytes+gather,
			0,
			int64(len(ids))*OpsSelect)
	}
	return out
}

// Fetch is the invisible (positional) join: it returns b's values at the
// given positions, aligned with ids. This is how late-materializing
// column stores implement projections (§IV-C).
//
// Morsel-parallel execution: each worker writes a disjoint slice of the
// output, so candidate alignment is preserved for free.
func Fetch(p par.P, m *device.Meter, b *bat.BAT, ids []bat.OID) []int64 {
	tails := b.Tails()
	out := mem.I64.GetN(len(ids))
	if serial(p, len(ids)) {
		for i, id := range ids {
			out[i] = tails[id]
		}
	} else {
		p.For(len(ids), func(mlo, mhi int) {
			for i := mlo; i < mhi; i++ {
				out[i] = tails[ids[i]]
			}
		})
	}
	if m != nil {
		gather := device.RandomFetchBytes(int64(len(ids)), int64(b.Width()), b.TailBytes())
		m.CPUWork(p.NThreads(),
			int64(len(ids))*oidBytes+int64(len(out))*int64(b.Width())+gather,
			0,
			int64(len(ids))*OpsFetch)
	}
	return out
}

// Grouping is the result of a group-by: a group ID per input position
// (positionally aligned with the input, the MonetDB representation noted
// in §IV-E) plus the distinct keys in first-appearance order.
type Grouping struct {
	IDs     []uint32 // group id per input position
	NGroups int
	Keys    []int64 // Keys[g] is the key value of group g
}

// GroupBy hash-groups the given keys, assigning dense group IDs in order
// of first appearance.
//
// Morsel-parallel execution: each worker hash-groups one contiguous block
// into a partial grouping, the partials merge in block order (so global
// group IDs follow global first appearance, exactly as the serial loop
// assigns them), and the per-position ID rewrite runs parallel again.
func GroupBy(p par.P, m *device.Meter, keys []int64) *Grouping {
	var g *Grouping
	if serial(p, len(keys)) {
		idx := make(map[int64]uint32, 64)
		ids := make([]uint32, len(keys))
		var uniq []int64
		for i, k := range keys {
			gid, ok := idx[k]
			if !ok {
				gid = uint32(len(uniq))
				idx[k] = gid
				uniq = append(uniq, k)
			}
			ids[i] = gid
		}
		g = &Grouping{IDs: ids, NGroups: len(uniq), Keys: uniq}
	} else {
		g = groupByBlocks(p, keys)
	}
	if m != nil {
		m.CPUWork(p.NThreads(),
			int64(len(keys))*8+int64(len(g.IDs))*4, 0,
			int64(len(keys))*OpsHashGroup)
	}
	return g
}

// groupByBlocks is the partial-state grouping core shared by GroupBy.
func groupByBlocks(p par.P, keys []int64) *Grouping {
	blocks := p.Blocks(len(keys))
	type partial struct {
		idx  map[int64]uint32
		uniq []int64
	}
	parts := make([]partial, len(blocks))
	ids := make([]uint32, len(keys)) // block-local ids first, rewritten below
	par.RunBlocks(p, len(keys), func(b, lo, hi int) {
		pt := &parts[b]
		if pt.idx == nil {
			pt.idx = make(map[int64]uint32, 64)
		}
		for i := lo; i < hi; i++ {
			k := keys[i]
			gid, ok := pt.idx[k]
			if !ok {
				gid = uint32(len(pt.uniq))
				pt.idx[k] = gid
				pt.uniq = append(pt.uniq, k)
			}
			ids[i] = gid
		}
	})
	// Merge block partials in block order: first appearance across blocks
	// equals first appearance in the serial scan.
	global := make(map[int64]uint32, 64)
	var uniq []int64
	remap := make([][]uint32, len(blocks))
	for b := range parts {
		remap[b] = make([]uint32, len(parts[b].uniq))
		for localID, k := range parts[b].uniq {
			gid, ok := global[k]
			if !ok {
				gid = uint32(len(uniq))
				global[k] = gid
				uniq = append(uniq, k)
			}
			remap[b][localID] = gid
		}
	}
	blockOf := func(i int) int {
		// Blocks are equal-sized except the last; derive the index from the
		// first block's span.
		size := blocks[0].Hi - blocks[0].Lo
		b := i / size
		if b >= len(blocks) {
			b = len(blocks) - 1
		}
		return b
	}
	p.For(len(keys), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ids[i] = remap[blockOf(i)][ids[i]]
		}
	})
	return &Grouping{IDs: ids, NGroups: len(uniq), Keys: uniq}
}

// SumGrouped returns per-group sums of vals under the grouping.
//
// Morsel-parallel execution: per-worker partial sum arrays merged by
// addition (exact for int64, so the result is identical for every worker
// count).
func SumGrouped(p par.P, m *device.Meter, vals []int64, g *Grouping) []int64 {
	out := mem.I64.GetN(g.NGroups)
	clear(out)
	if serial(p, len(vals)) {
		for i, v := range vals {
			out[g.IDs[i]] += v
		}
	} else {
		nb := p.NBlocks(len(vals))
		parts := mem.I64.GetN(nb * g.NGroups)
		clear(parts)
		par.RunBlocks(p, len(vals), func(b, lo, hi int) {
			pb := parts[b*g.NGroups : (b+1)*g.NGroups]
			for i := lo; i < hi; i++ {
				pb[g.IDs[i]] += vals[i]
			}
		})
		for b := 0; b < nb; b++ {
			pb := parts[b*g.NGroups : (b+1)*g.NGroups]
			for gi, v := range pb {
				out[gi] += v
			}
		}
		mem.I64.Put(parts)
	}
	charge(m, p.NThreads(), len(vals), 12)
	return out
}

// CountGrouped returns per-group tuple counts.
func CountGrouped(p par.P, m *device.Meter, g *Grouping) []int64 {
	out := mem.I64.GetN(g.NGroups)
	clear(out)
	if serial(p, len(g.IDs)) {
		for _, id := range g.IDs {
			out[id]++
		}
	} else {
		nb := p.NBlocks(len(g.IDs))
		parts := mem.I64.GetN(nb * g.NGroups)
		clear(parts)
		par.RunBlocks(p, len(g.IDs), func(b, lo, hi int) {
			pb := parts[b*g.NGroups : (b+1)*g.NGroups]
			for i := lo; i < hi; i++ {
				pb[g.IDs[i]]++
			}
		})
		for b := 0; b < nb; b++ {
			pb := parts[b*g.NGroups : (b+1)*g.NGroups]
			for gi, v := range pb {
				out[gi] += v
			}
		}
		mem.I64.Put(parts)
	}
	charge(m, p.NThreads(), len(g.IDs), 4)
	return out
}

// MinGrouped returns per-group minima of vals under the grouping.
func MinGrouped(p par.P, m *device.Meter, vals []int64, g *Grouping) []int64 {
	out, seen := extremaGrouped(p, vals, g, true)
	mem.Bools.Put(seen)
	charge(m, p.NThreads(), len(vals), 12)
	return out
}

// MaxGrouped returns per-group maxima of vals under the grouping.
func MaxGrouped(p par.P, m *device.Meter, vals []int64, g *Grouping) []int64 {
	out, seen := extremaGrouped(p, vals, g, false)
	mem.Bools.Put(seen)
	charge(m, p.NThreads(), len(vals), 12)
	return out
}

// extremaGrouped computes per-group minima (min=true) or maxima with
// per-worker partial (value, seen) states merged per group.
func extremaGrouped(p par.P, vals []int64, g *Grouping, min bool) ([]int64, []bool) {
	out := mem.I64.GetN(g.NGroups)
	clear(out)
	seen := mem.Bools.GetN(g.NGroups)
	clear(seen)
	if serial(p, len(vals)) {
		for i, v := range vals {
			id := g.IDs[i]
			if !seen[id] || better(min, v, out[id]) {
				out[id], seen[id] = v, true
			}
		}
		return out, seen
	}
	nb := p.NBlocks(len(vals))
	parts := mem.I64.GetN(nb * g.NGroups)
	clear(parts)
	pseen := mem.Bools.GetN(nb * g.NGroups)
	clear(pseen)
	par.RunBlocks(p, len(vals), func(b, lo, hi int) {
		pb := parts[b*g.NGroups : (b+1)*g.NGroups]
		ps := pseen[b*g.NGroups : (b+1)*g.NGroups]
		for i := lo; i < hi; i++ {
			id := g.IDs[i]
			if !ps[id] || better(min, vals[i], pb[id]) {
				pb[id], ps[id] = vals[i], true
			}
		}
	})
	for b := 0; b < nb; b++ {
		pb := parts[b*g.NGroups : (b+1)*g.NGroups]
		ps := pseen[b*g.NGroups : (b+1)*g.NGroups]
		for gi := range pb {
			if !ps[gi] {
				continue
			}
			if !seen[gi] || better(min, pb[gi], out[gi]) {
				out[gi], seen[gi] = pb[gi], true
			}
		}
	}
	mem.I64.Put(parts)
	mem.Bools.Put(pseen)
	return out, seen
}

// Sum returns the sum of vals.
func Sum(p par.P, m *device.Meter, vals []int64) int64 {
	var s int64
	if serial(p, len(vals)) {
		for _, v := range vals {
			s += v
		}
	} else {
		nb := p.NBlocks(len(vals))
		parts := mem.I64.GetN(nb)
		clear(parts)
		par.RunBlocks(p, len(vals), func(b, lo, hi int) {
			var bs int64
			for _, v := range vals[lo:hi] {
				bs += v
			}
			parts[b] += bs
		})
		for _, v := range parts {
			s += v
		}
		mem.I64.Put(parts)
	}
	charge(m, p.NThreads(), len(vals), 8)
	return s
}

// Min returns the smallest value; ok is false on empty input.
func Min(p par.P, m *device.Meter, vals []int64) (int64, bool) {
	return extrema(p, m, vals, true)
}

// Max returns the largest value; ok is false on empty input.
func Max(p par.P, m *device.Meter, vals []int64) (int64, bool) {
	return extrema(p, m, vals, false)
}

func extrema(p par.P, m *device.Meter, vals []int64, min bool) (int64, bool) {
	if len(vals) == 0 {
		return 0, false
	}
	best := vals[0]
	if serial(p, len(vals)) {
		for _, v := range vals[1:] {
			if better(min, v, best) {
				best = v
			}
		}
	} else {
		nb := p.NBlocks(len(vals))
		parts := mem.I64.GetN(nb)
		clear(parts)
		par.RunBlocks(p, len(vals), func(b, lo, hi int) {
			bb := vals[lo]
			for _, v := range vals[lo+1 : hi] {
				if better(min, v, bb) {
					bb = v
				}
			}
			if blo, _ := p.BlockRange(len(vals), b); lo == blo || better(min, bb, parts[b]) {
				parts[b] = bb
			}
		})
		best = parts[0]
		for _, v := range parts[1:] {
			if better(min, v, best) {
				best = v
			}
		}
		mem.I64.Put(parts)
	}
	charge(m, p.NThreads(), len(vals), 8)
	return best, true
}

// better is the extremum comparison: a improves on b. A named function
// (not a captured closure) so the serial aggregate paths stay
// allocation-free.
func better(min bool, a, b int64) bool {
	if min {
		return a < b
	}
	return a > b
}

func charge(m *device.Meter, threads, n, bytesPer int) {
	if m != nil {
		m.CPUWork(threads, int64(n)*int64(bytesPer), 0, int64(n)*OpsAggregate)
	}
}

// GroupByMulti hash-groups tuples by multi-column keys, returning the
// grouping plus the per-group key values of every column.
//
// Morsel-parallel execution runs on the same block-partial merge as GroupBy
// (first-appearance order preserved).
func GroupByMulti(p par.P, m *device.Meter, cols [][]int64) (*Grouping, [][]int64) {
	if len(cols) == 0 {
		return &Grouping{}, nil
	}
	n := len(cols[0])
	g, keys := groupMultiCore(p, cols)
	if m != nil {
		// One group.new pass plus a group.derive pass per further column.
		m.CPUWork(p.NThreads(), int64(n)*8*int64(len(cols))+int64(n)*4, 0,
			int64(n)*OpsHashGroup*int64(len(cols)))
	}
	return g, keys
}

// groupMultiCore is the unmetered multi-column grouping shared by
// GroupByMulti and the A&R group refinement: dense group IDs in
// first-appearance order plus the per-group key values of every column.
func groupMultiCore(p par.P, cols [][]int64) (*Grouping, [][]int64) {
	n := len(cols[0])
	packKey := func(buf []byte, i int) []byte {
		buf = buf[:0]
		for k := range cols {
			v := uint64(cols[k][i])
			for s := 0; s < 8; s++ {
				buf = append(buf, byte(v>>(8*s)))
			}
		}
		return buf
	}
	ids := make([]uint32, n)
	var order []int // global first-appearance positions per group
	if serial(p, n) {
		idx := make(map[string]uint32, 64)
		keyBuf := make([]byte, 0, len(cols)*8)
		for i := 0; i < n; i++ {
			keyBuf = packKey(keyBuf, i)
			g, ok := idx[string(keyBuf)]
			if !ok {
				g = uint32(len(order))
				idx[string(keyBuf)] = g
				order = append(order, i)
			}
			ids[i] = g
		}
	} else {
		blocks := p.Blocks(n)
		type partial struct {
			idx    map[string]uint32
			firsts []int // global position of each local group's first row
		}
		parts := make([]partial, len(blocks))
		par.RunBlocks(p, n, func(b, lo, hi int) {
			pt := &parts[b]
			if pt.idx == nil {
				pt.idx = make(map[string]uint32, 64)
			}
			keyBuf := make([]byte, 0, len(cols)*8)
			for i := lo; i < hi; i++ {
				keyBuf = packKey(keyBuf, i)
				g, ok := pt.idx[string(keyBuf)]
				if !ok {
					g = uint32(len(pt.firsts))
					pt.idx[string(keyBuf)] = g
					pt.firsts = append(pt.firsts, i)
				}
				ids[i] = g
			}
		})
		global := make(map[string]uint32, 64)
		remap := make([][]uint32, len(blocks))
		keyBuf := make([]byte, 0, len(cols)*8)
		for b := range parts {
			remap[b] = make([]uint32, len(parts[b].firsts))
			for localID, first := range parts[b].firsts {
				keyBuf = packKey(keyBuf, first)
				g, ok := global[string(keyBuf)]
				if !ok {
					g = uint32(len(order))
					global[string(keyBuf)] = g
					order = append(order, first)
				}
				remap[b][localID] = g
			}
		}
		size := blocks[0].Hi - blocks[0].Lo
		p.For(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				b := i / size
				if b >= len(blocks) {
					b = len(blocks) - 1
				}
				ids[i] = remap[b][ids[i]]
			}
		})
	}
	keys := make([][]int64, len(cols))
	for k := range cols {
		keys[k] = make([]int64, len(order))
		for gi, first := range order {
			keys[k][gi] = cols[k][first]
		}
	}
	return &Grouping{IDs: ids, NGroups: len(order)}, keys
}
