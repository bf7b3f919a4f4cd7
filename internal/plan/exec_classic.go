package plan

import (
	"fmt"

	"repro/internal/bat"
	"repro/internal/bulk"
	"repro/internal/mem"
	"repro/internal/par"
)

// scanClassic is the classic scan strategy: MonetDB-style uselect chains
// over the row-major base segment, one bitmap pass for deletions, the
// FK-probe join chain through the pre-built indexes, and full
// materialization of every referenced column — producing the same
// exact-value tuple stream as the A&R scan for the shared pipeline tail.
// The delta segment is scanned by the shared delta source and handed to
// the tail unmerged.
func (pl *pipeline) scanClassic(st *pipeState) (*scanOut, error) {
	q := &pl.q
	snap := pl.snap
	pp := st.pp
	m := st.m
	fact := snap.fact

	// Selections: first a full scan, then progressively narrower
	// candidate-list filters (MonetDB's uselect chains).
	if err := st.step(StageBulk); err != nil {
		return nil, err
	}
	var ids []bat.OID
	if len(pl.factFilters) > 0 {
		f0 := pl.factFilters[0].f
		b, err := fact.Column(f0.Col)
		if err != nil {
			return nil, err
		}
		ids = bulk.SelectRange(pp, m, b, f0.Lo, f0.Hi)
		st.traceEst(len(ids), st.estApply(pl.factFilters[0].estSel()), "algebra.uselect(%s.%s)", q.Table, f0.Col)
		for _, rf := range pl.factFilters[1:] {
			if err := st.step(StageBulk); err != nil {
				return nil, err
			}
			b, err := fact.Column(rf.f.Col)
			if err != nil {
				return nil, err
			}
			prev := ids
			ids = bulk.SelectOIDs(pp, m, b, prev, rf.f.Lo, rf.f.Hi)
			bat.OIDPool.Put(prev)
			st.traceEst(len(ids), st.estApply(rf.estSel()), "algebra.uselect(%s.%s)", q.Table, rf.f.Col)
		}
	} else {
		ids = bat.OIDPool.GetN(fact.BaseLen())
		pp.For(len(ids), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				ids[i] = bat.OID(i)
			}
		})
		m.CPUWork(pp.NThreads(), int64(len(ids))*4, 0, int64(len(ids)))
		st.traceRows(len(ids), "algebra.scan(%s)", q.Table)
	}

	// Disjunction groups: fetch each disjunct column at the surviving
	// positions and keep the rows matching any range — one
	// fully-materializing pass per group, like every classic operator.
	for _, g := range pl.orGroups {
		if err := st.step(StageBulk); err != nil {
			return nil, err
		}
		cols := make([][]int64, len(g.filters))
		for k, f := range g.filters {
			b, err := fact.Column(f.Col)
			if err != nil {
				return nil, err
			}
			cols[k] = bulk.Fetch(pp, m, b, ids)
		}
		filters := g.filters
		prev := ids
		ids = par.GatherOrdered(pp, len(prev), func(lo, hi int) []bat.OID {
			part := make([]bat.OID, 0, hi-lo)
			for i := lo; i < hi; i++ {
				for k, f := range filters {
					if v := cols[k][i]; v >= f.Lo && v <= f.Hi {
						part = append(part, prev[i])
						break
					}
				}
			}
			return part
		})
		m.CPUWork(pp.NThreads(), int64(len(cols))*int64(len(cols[0]))*8, 0, int64(len(cols))*int64(len(cols[0])))
		bat.OIDPool.Put(prev)
		for k := range cols {
			mem.I64.Put(cols[k])
		}
		st.traceEst(len(ids), st.estApply(g.sel), "algebra.uselectany(%s)", orGroupText(q.Table, g.filters))
	}

	// Discharge deleted base rows with one bitmap pass.
	if fact.BaseDeletedCount() > 0 {
		ids = maskDeletedOIDs(m, pp, fact, ids)
		st.traceRows(len(ids), "algebra.maskdeleted(%s)", q.Table)
	}

	// Foreign-key join chain through the pre-built indexes.
	joinPos := make([][]bat.OID, len(pl.joins))
	lookups := map[string]func(int64) (bat.OID, bool){}
	for ji, js := range pl.joins {
		spec := js.spec
		if err := st.step(StageBulk); err != nil {
			return nil, err
		}
		fkBAT, err := fact.Column(spec.FKCol)
		if err != nil {
			return nil, err
		}
		ds := snap.dims[spec.Dim]
		ix := ds.FKIndex(spec.DimPK)
		if ix == nil {
			return nil, fmt.Errorf("plan: no FK index on %s.%s; call BuildFKIndex first", spec.Dim, spec.DimPK)
		}
		lookups[spec.Dim] = ix.Lookup
		fkVals := bulk.Fetch(pp, m, fkBAT, ids)
		pos, hit := bulk.FKJoin(pp, m, ix, fkVals)
		mem.I64.Put(fkVals)
		// Keep the id list, this join's positions, and every earlier
		// join's positions aligned while dropping misses and rows joined
		// to deleted dimension rows.
		pairs := par.GatherOrdered(pp, len(ids), func(lo, hi int) []idKeep {
			part := make([]idKeep, 0, hi-lo)
			for i := lo; i < hi; i++ {
				if hit[i] && !ds.BaseDeleted(int(pos[i])) {
					part = append(part, idKeep{i, ids[i], pos[i]})
				}
			}
			return part
		})
		var keep []int
		prevIDs := ids
		ids, joinPos[ji], keep = splitKeep(pairs)
		bat.OIDPool.Put(prevIDs)
		bat.OIDPool.Put(pos)
		mem.Bools.Put(hit)
		compactJoinPos(pp, joinPos[:ji], keep)
		st.traceRows(len(ids), "algebra.leftjoin(%s.%s -> %s)", q.Table, spec.FKCol, spec.Dim)

		for _, rf := range js.dimFilters {
			db, err := ds.Column(rf.f.Col)
			if err != nil {
				return nil, err
			}
			vals := bulk.Fetch(pp, m, db, joinPos[ji])
			f := rf.f
			curIDs, curPos := ids, joinPos[ji]
			pairs := par.GatherOrdered(pp, len(vals), func(lo, hi int) []idKeep {
				part := make([]idKeep, 0, hi-lo)
				for i := lo; i < hi; i++ {
					if vals[i] >= f.Lo && vals[i] <= f.Hi {
						part = append(part, idKeep{i, curIDs[i], curPos[i]})
					}
				}
				return part
			})
			prevIDs, prevPos := ids, joinPos[ji]
			ids, joinPos[ji], keep = splitKeep(pairs)
			bat.OIDPool.Put(prevIDs)
			bat.OIDPool.Put(prevPos)
			mem.I64.Put(vals)
			compactJoinPos(pp, joinPos[:ji], keep)
			m.CPUWork(pp.NThreads(), int64(len(vals))*8, 0, int64(len(vals)))
			st.traceEst(len(ids), st.estApply(rf.estSel()), "algebra.uselect(%s.%s)", spec.Dim, rf.f.Col)
		}
	}

	// Delta scan: evaluate the predicates over the live delta rows and
	// materialize the needed values in the same pass.
	need := neededCols(*q, len(q.GroupBy) > 0)
	var dset *deltaSet
	if fact.DeltaLen() > 0 {
		if err := st.step(StageDelta); err != nil {
			return nil, err
		}
		var err error
		dset, err = scanDelta(m, pp, *q, snap, need, lookups)
		if err != nil {
			return nil, err
		}
		st.traceRows(dset.n, "delta.scan(%s, %d qualifying)", q.Table, dset.n)
	}
	st.estCapture()
	st.res.Candidates = len(ids)
	st.res.Refined = len(ids)

	// Materialize referenced columns at the qualifying base positions;
	// grouping keys ride along when a grouping is present.
	posFor := func(dim string) []bat.OID {
		for ji, js := range pl.joins {
			if js.spec.Dim == dim {
				return joinPos[ji]
			}
		}
		return nil
	}
	ectx := &exprCtx{n: len(ids), vals: map[ColRef][]int64{}}
	for _, ref := range sortedRefs(need) {
		if err := st.step(StageBulk); err != nil {
			return nil, err
		}
		if ref.IsDim() {
			db, err := snap.dims[ref.Dim].Column(ref.Name)
			if err != nil {
				return nil, err
			}
			ectx.vals[ref] = bulk.Fetch(pp, m, db, posFor(ref.Dim))
		} else {
			fb, err := fact.Column(ref.Name)
			if err != nil {
				return nil, err
			}
			ectx.vals[ref] = bulk.Fetch(pp, m, fb, ids)
		}
		st.traceRows(ectx.n, "algebra.leftjoin(%s)", ref.Name)
	}
	// The position lists are dead once every referenced column is
	// materialized.
	bat.OIDPool.Put(ids)
	for _, pos := range joinPos {
		bat.OIDPool.Put(pos)
	}

	return &scanOut{ectx: ectx, dset: dset}, nil
}

// idKeep is one surviving row of a join or dimension-filter pass: its
// index in the pre-pass candidate list plus the fact id and dimension
// position that survive.
type idKeep struct {
	i       int
	id, pos bat.OID
}

// splitKeep unpacks gathered survivors into the new id list, the new
// position list, and the keep indexes that realign earlier joins.
func splitKeep(pairs []idKeep) (ids, pos []bat.OID, keep []int) {
	ids = bat.OIDPool.GetN(len(pairs))
	pos = bat.OIDPool.GetN(len(pairs))
	keep = mem.Ints.GetN(len(pairs))
	for i, ik := range pairs {
		ids[i] = ik.id
		pos[i] = ik.pos
		keep[i] = ik.i
	}
	return ids, pos, keep
}

// compactJoinPos compacts earlier joins' position lists with the keep
// index list produced by a later join or dimension filter.
func compactJoinPos(pp par.P, lists [][]bat.OID, keep []int) {
	for li, at := range lists {
		if at == nil {
			continue
		}
		kept := bat.OIDPool.GetN(len(keep))
		pp.For(len(keep), func(mlo, mhi int) {
			for i := mlo; i < mhi; i++ {
				kept[i] = at[keep[i]]
			}
		})
		bat.OIDPool.Put(at)
		lists[li] = kept
	}
}
