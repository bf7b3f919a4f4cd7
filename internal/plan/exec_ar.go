package plan

import (
	"context"
	"fmt"

	"repro/internal/ar"
	"repro/internal/bat"
	"repro/internal/bwd"
	"repro/internal/mem"
	"repro/internal/par"
)

// ExecOpts tunes execution.
type ExecOpts struct {
	// Threads is the CPU thread count used by refinement (and by the whole
	// classic plan). Defaults to 1, the paper's per-query baseline setup.
	// It is the *simulated* thread count: the meter bills every CPU kernel
	// as Threads-way parallel, and (absent an explicit Workers budget) it
	// is also the real morsel-parallel worker count, so wall-clock follows
	// the simulation.
	Threads int
	// Workers overrides the real worker-goroutine budget without touching
	// the meter: the engine's scheduler sets it to this query's share of
	// the CPU pool, so concurrent queries split the machine instead of
	// each assuming all of it. 0 means Threads. Simulated figures are
	// identical for every Workers value.
	Workers int
	// Morsel overrides the morsel size in rows (0 = the default 64k).
	// Tests shrink it to push morsel boundaries through small inputs.
	Morsel int
	// OnStage, if set, is invoked at every cooperative checkpoint with the
	// stage about to run. It exists for observability and deterministic
	// cancellation tests; it must be fast and safe for concurrent use.
	OnStage func(Stage)
	// Trace collects a per-operator obs.Trace on the Result. Tracing reads
	// the clock and the meter but never charges the meter, so results,
	// approximate answers and simulated figures are bit-identical with the
	// flag on or off.
	Trace bool
	// Gate, if set, admission-controls the per-partition device streams of
	// a scatter-gather execution (the engine's scheduler passes its
	// per-device ledger). Unpartitioned executions never consult it, and it
	// never affects results or simulated figures — only real concurrency.
	Gate DeviceGate
}

func (o ExecOpts) threads() int {
	if o.Threads > 0 {
		return o.Threads
	}
	return 1
}

// workers returns the real worker budget (Workers, else Threads).
func (o ExecOpts) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return o.threads()
}

// par bundles the execution options and the query context into the
// parallelism descriptor handed to every CPU kernel: meter charges use
// threads(), real execution uses workers(), and ctx is polled at morsel
// granularity so cancellation latency is bounded by one morsel.
func (o ExecOpts) par(ctx context.Context) par.P {
	return par.P{Threads: o.threads(), Workers: o.workers(), Chunk: o.Morsel, Ctx: ctx}
}

// arJoinRT is the runtime state of one FK-probe stage in the A&R scan:
// the dimension base positions aligned with the current candidate set and
// the delta scan's FK lookup.
type arJoinRT struct {
	stage  joinStage
	pos    []bat.OID
	lookup func(int64) (bat.OID, bool)
}

// scanAR is the A&R scan strategy: the approximation subplan on the
// device (selections, disjunctions, join probes, pre-grouping,
// projections), the single bus crossing, and the refinement subplan on
// the CPU — producing the base segment's exact tuple values for the
// shared pipeline tail. The delta segment is scanned with one classic
// row-major pass before the ship (so the phase-A answer can include its
// exact contribution) and handed to the tail unmerged.
func (pl *pipeline) scanAR(st *pipeState) (*scanOut, error) {
	q := &pl.q
	snap := pl.snap
	pp := st.pp
	m := st.m

	// ---- Phase A: the approximation subplan on the device.
	if err := st.step(StageApprox); err != nil {
		return nil, err
	}
	var cands *ar.Candidates
	switch {
	case len(pl.factFilters) > 0:
		f0 := pl.factFilters[0].f
		d := snap.get(q.Table, f0.Col)
		cands = ar.SelectApprox(m, d, d.Relax(f0.Lo, f0.Hi))
		st.traceEst(cands.Len(), st.estApply(pl.factFilters[0].estSel()), "bwd.uselectapproximate(%s.%s)", q.Table, f0.Col)
		for _, rf := range pl.factFilters[1:] {
			if err := st.step(StageApprox); err != nil {
				return nil, err
			}
			d := snap.get(q.Table, rf.f.Col)
			prev := cands
			cands = ar.SelectApproxOver(m, d, d.Relax(rf.f.Lo, rf.f.Hi), prev)
			prev.Release()
			st.traceEst(cands.Len(), st.estApply(rf.estSel()), "bwd.uselectapproximate(%s.%s)", q.Table, rf.f.Col)
		}
	case len(pl.orGroups) > 0:
		g := pl.orGroups[0]
		cols, rs, _, _ := pl.orGroupRelax(g)
		cands = ar.SelectApproxAny(m, cols, rs, g.id)
		st.traceEst(cands.Len(), st.estApply(g.sel), "bwd.uselectanyapproximate(%s)", orGroupText(q.Table, g.filters))
	default:
		anchor, ok := q.anchorColumn()
		if !ok {
			return nil, fmt.Errorf("plan: query references no fact columns")
		}
		d := snap.get(q.Table, anchor)
		cands = ar.SelectApprox(m, d, bwd.ApproxRange{Full: true})
		st.traceRows(cands.Len(), "bwd.scanapproximate(%s.%s)", q.Table, anchor)
	}
	// Remaining disjunction groups narrow the candidate set like further
	// conjuncts — each one the union of its per-disjunct relaxed ranges.
	orStart := 0
	if len(pl.factFilters) == 0 && len(pl.orGroups) > 0 {
		orStart = 1
	}
	for _, g := range pl.orGroups[orStart:] {
		if err := st.step(StageApprox); err != nil {
			return nil, err
		}
		cols, rs, _, _ := pl.orGroupRelax(g)
		prev := cands
		cands = ar.SelectApproxAnyOver(m, cols, rs, prev, g.id)
		prev.Release()
		st.traceEst(cands.Len(), st.estApply(g.sel), "bwd.uselectanyapproximate(%s)", orGroupText(q.Table, g.filters))
	}

	// Discharge deleted base rows on the device: the deletion bitmap is
	// mirrored GPU-side (shipped by DELETE), so masking is one kernel over
	// the candidate IDs and the phase-A answer stays a strict bound over
	// the live rows.
	if fs := snap.fact; fs.BaseDeletedCount() > 0 {
		keep := par.GatherOrdered(pp, cands.Len(), func(lo, hi int) []int {
			part := make([]int, 0, hi-lo)
			for i := lo; i < hi; i++ {
				if !fs.BaseDeleted(int(cands.IDs[i])) {
					part = append(part, i)
				}
			}
			return part
		})
		m.GPUKernel(int64(cands.Len())*4+int64(fs.BaseLen()+7)/8, 0, int64(cands.Len()))
		prev := cands
		cands = prev.Filter(keep)
		prev.Release()
		st.traceRows(cands.Len(), "bwd.maskdeleted(%s)", q.Table)
	}

	// Foreign-key join chain and dimension-side approximate selections.
	joins := make([]*arJoinRT, len(pl.joins))
	for ji := range pl.joins {
		joins[ji] = &arJoinRT{stage: pl.joins[ji]}
		jr := joins[ji]
		spec := jr.stage.spec
		if err := st.step(StageApprox); err != nil {
			return nil, err
		}
		fkd := snap.get(q.Table, spec.FKCol)
		ds := snap.dims[spec.Dim]
		dimLen := ds.BaseLen()
		pk, err := ds.Column(spec.DimPK)
		if err != nil {
			return nil, err
		}
		pkBase := pk.Tail(0)
		jr.lookup = denseLookup(pkBase, dimLen)
		jr.pos, err = ar.FKPositionsApprox(m, fkd, cands, pkBase, dimLen)
		if err != nil {
			return nil, err
		}
		st.traceRows(cands.Len(), "bwd.leftjoinapproximate(%s.%s -> %s)", q.Table, spec.FKCol, spec.Dim)
		if ds.BaseDeletedCount() > 0 {
			type keepPos struct {
				i   int
				pos bat.OID
			}
			pairs := par.GatherOrdered(pp, len(jr.pos), func(lo, hi int) []keepPos {
				part := make([]keepPos, 0, hi-lo)
				for i := lo; i < hi; i++ {
					if !ds.BaseDeleted(int(jr.pos[i])) {
						part = append(part, keepPos{i, jr.pos[i]})
					}
				}
				return part
			})
			keep := make([]int, len(pairs))
			kept := make([]bat.OID, len(pairs))
			for i, kp := range pairs {
				keep[i] = kp.i
				kept[i] = kp.pos
			}
			m.GPUKernel(int64(len(jr.pos))*4+int64(ds.BaseLen()+7)/8, 0, int64(len(jr.pos)))
			prev := cands
			cands = prev.Filter(keep)
			prev.Release()
			bat.OIDPool.Put(jr.pos)
			jr.pos = kept
			remapJoinPos(pp, joins[:ji], keep)
			st.traceRows(cands.Len(), "bwd.maskdeleted(%s)", spec.Dim)
		}
		for _, rf := range jr.stage.dimFilters {
			dd := snap.get(spec.Dim, rf.f.Col)
			prev, prevPos := cands, jr.pos
			cands, jr.pos = ar.SelectApproxAt(m, dd, dd.Relax(rf.f.Lo, rf.f.Hi), prev, prevPos)
			if err := remapJoinLists(pp, joins[:ji], nil, prev, cands); err != nil {
				return nil, err
			}
			prev.Release()
			bat.OIDPool.Put(prevPos)
			st.traceEst(cands.Len(), st.estApply(rf.estSel()), "bwd.uselectapproximate(%s.%s)", spec.Dim, rf.f.Col)
		}
	}

	// Device-side pre-grouping — only while the table has no live delta
	// rows: a delta forces the grouping onto the host, where base and
	// delta tuples meet.
	useDevGrouping := len(q.GroupBy) > 0 && snap.fact.LiveDelta() == 0 && !pl.noDevGroup
	var mg *ar.MultiGrouping
	if useDevGrouping {
		cols := make([]*bwd.Column, len(q.GroupBy))
		for i, g := range q.GroupBy {
			cols[i] = snap.get(q.Table, g)
		}
		mg = ar.GroupApproxMulti(m, cols, cands)
		st.traceRows(cands.Len(), "bwd.groupapproximate(%s)", join(q.GroupBy))
	}

	// Approximate projections for every column the aggregation phase
	// needs: aggregate inputs, plus the grouping keys when grouping merges
	// with the delta on the host.
	posFor := func(dim string) []bat.OID {
		for _, jr := range joins {
			if jr.stage.spec.Dim == dim {
				return jr.pos
			}
		}
		return nil
	}
	need := neededCols(*q, len(q.GroupBy) > 0 && !useDevGrouping)
	var refList []ColRef
	projections := map[ColRef]*ar.Projection{}
	addRef := func(ref ColRef) {
		if _, done := projections[ref]; done {
			return
		}
		if ref.IsDim() {
			dd := snap.get(ref.Dim, ref.Name)
			projections[ref] = ar.ProjectApproxAt(m, dd, cands, posFor(ref.Dim))
			st.traceRows(cands.Len(), "bwd.leftjoinapproximate(%s.%s)", ref.Dim, ref.Name)
		} else {
			fd := snap.get(q.Table, ref.Name)
			projections[ref] = ar.ProjectApprox(m, fd, cands)
			st.traceRows(cands.Len(), "bwd.leftjoinapproximate(%s.%s)", q.Table, ref.Name)
		}
		refList = append(refList, ref)
	}
	for _, a := range q.Aggs {
		if a.Expr == nil {
			continue
		}
		for _, ref := range a.Expr.Cols() {
			addRef(ref)
		}
	}
	if len(q.GroupBy) > 0 && !useDevGrouping {
		for _, g := range q.GroupBy {
			addRef(ColRef{Name: g})
		}
	}

	// ---- Delta scan: the append segment lives in host memory and is
	// never decomposed; one classic row-major pass evaluates the
	// predicates and materializes the needed values exactly.
	var dset *deltaSet
	if snap.fact.DeltaLen() > 0 {
		if err := st.step(StageDelta); err != nil {
			return nil, err
		}
		lookups := map[string]func(int64) (bat.OID, bool){}
		for _, jr := range joins {
			lookups[jr.stage.spec.Dim] = jr.lookup
		}
		var err error
		dset, err = scanDelta(m, pp, *q, snap, need, lookups)
		if err != nil {
			return nil, err
		}
		st.traceRows(dset.n, "delta.scan(%s, %d qualifying)", q.Table, dset.n)
	}

	// Phase-A partial: strict bounds from approximations over the base
	// segment, plus the (exact) delta contributions; finalized by the
	// caller once every partial of the query is in.
	approx := approxAnswer(m, *q, cands, projections, dset)
	st.res.Candidates = cands.Len()
	for _, a := range q.Aggs {
		st.traceRows(cands.Len(), "bwd.%sapproximate(%s)", a.Func, a.Name)
	}

	// ---- Ship: one bus crossing for candidates, projections, groupings.
	if err := st.step(StageShip); err != nil {
		return nil, err
	}
	cands.Ship(m)
	for _, ref := range refList {
		projections[ref].Ship(m)
	}
	if mg != nil {
		mg.Ship(m)
	}
	for _, jr := range joins {
		if jr.pos != nil {
			m.Transfer(int64(len(jr.pos)) * 4)
		}
	}
	st.traceRows(cands.Len(), "ship(%s, %d projections)", q.Table, len(refList))

	// ---- Phase R: the refinement subplan on the CPU. The selectivity
	// estimate restarts at the live base cardinality: refinement walks the
	// same predicate chain with exact bounds, so the same model predicts
	// its per-filter output. The phase-A running estimate is captured first
	// as the trace footer's candidate-set prediction.
	st.estCapture()
	st.estReset(pl)
	refined := cands
	for _, rf := range pl.factFilters {
		if err := st.step(StageRefine); err != nil {
			return nil, err
		}
		d := snap.get(q.Table, rf.f.Col)
		prev := refined
		if len(joins) == 0 {
			var vals []int64
			refined, vals = ar.SelectRefine(pp, m, d, rf.f.Lo, rf.f.Hi, prev)
			mem.I64.Put(vals)
		} else {
			// Keep every join's positions aligned while filtering.
			var err error
			refined, err = refineKeepingJoins(pp, joins, func() *ar.Candidates {
				out, vals := ar.SelectRefine(pp, m, d, rf.f.Lo, rf.f.Hi, prev)
				mem.I64.Put(vals)
				return out
			}, prev)
			if err != nil {
				return nil, err
			}
		}
		if prev != cands {
			prev.Release()
		}
		st.traceEst(refined.Len(), st.estApply(rf.estSel()), "bwd.uselectrefine(%s.%s)", q.Table, rf.f.Col)
	}
	for _, g := range pl.orGroups {
		if err := st.step(StageRefine); err != nil {
			return nil, err
		}
		cols, _, los, his := pl.orGroupRelax(g)
		cur := refined
		var err error
		refined, err = refineKeepingJoins(pp, joins, func() *ar.Candidates {
			return ar.SelectRefineAny(pp, m, cols, los, his, cur)
		}, cur)
		if err != nil {
			return nil, err
		}
		if cur != cands {
			cur.Release()
		}
		st.traceEst(refined.Len(), st.estApply(g.sel), "bwd.uselectanyrefine(%s)", orGroupText(q.Table, g.filters))
	}
	for _, jr := range joins {
		spec := jr.stage.spec
		st.traceRows(refined.Len(), "bwd.leftjoinrefine(%s.%s -> %s)", q.Table, spec.FKCol, spec.Dim)
		for _, rf := range jr.stage.dimFilters {
			if err := st.step(StageRefine); err != nil {
				return nil, err
			}
			dd := snap.get(spec.Dim, rf.f.Col)
			prev, prevPos := refined, jr.pos
			var vals []int64
			refined, jr.pos, vals = ar.SelectRefineAt(pp, m, dd, rf.f.Lo, rf.f.Hi, prev, prevPos)
			mem.I64.Put(vals)
			if err := remapJoinLists(pp, joins, jr, prev, refined); err != nil {
				return nil, err
			}
			bat.OIDPool.Put(prevPos)
			if prev != cands {
				prev.Release()
			}
			st.traceEst(refined.Len(), st.estApply(rf.estSel()), "bwd.uselectrefine(%s.%s)", spec.Dim, rf.f.Col)
		}
	}
	st.res.Refined = refined.Len()

	// Exact values for every referenced column.
	ectx := &exprCtx{n: refined.Len(), vals: map[ColRef][]int64{}}
	for _, ref := range refList {
		if err := st.step(StageRefine); err != nil {
			return nil, err
		}
		p := projections[ref]
		var vals []int64
		var err error
		if ref.IsDim() {
			vals, err = ar.ProjectRefineAt(pp, m, p, refined, posFor(ref.Dim))
		} else {
			vals, err = ar.ProjectRefine(pp, m, p, refined)
		}
		if err != nil {
			return nil, err
		}
		ectx.vals[ref] = vals
		st.traceRows(refined.Len(), "bwd.leftjoinrefine(%s)", ref.Name)
	}

	// The projection code buffers and the original candidate set are dead
	// once every projection has refined; the surviving set travels on to
	// the shared tail (run releases it after aggregation). mg still holds
	// cands as its Src until the group refinement, so keep it alive then.
	for _, ref := range refList {
		projections[ref].Release()
	}
	if cands != refined && mg == nil {
		cands.Release()
	}

	return &scanOut{ectx: ectx, dset: dset, mg: mg, refined: refined, approx: approx}, nil
}

// orGroupRelax resolves one disjunction group against the snapshot: the
// decomposed columns, the per-disjunct relaxed ranges (each through its
// own column's BWD bounds), and the exact bounds for refinement.
func (pl *pipeline) orGroupRelax(g orGroupStage) (cols []*bwd.Column, rs []bwd.ApproxRange, los, his []int64) {
	cols = make([]*bwd.Column, len(g.filters))
	rs = make([]bwd.ApproxRange, len(g.filters))
	los = make([]int64, len(g.filters))
	his = make([]int64, len(g.filters))
	for i, f := range g.filters {
		cols[i] = pl.snap.get(pl.q.Table, f.Col)
		rs[i] = cols[i].Relax(f.Lo, f.Hi)
		los[i], his[i] = f.Lo, f.Hi
	}
	return cols, rs, los, his
}

func orGroupText(table string, filters []Filter) string {
	out := ""
	for i, f := range filters {
		if i > 0 {
			out += "|"
		}
		out += table + "." + f.Col
	}
	return out
}

// refineKeepingJoins runs a candidate refinement produced by refine while
// keeping every join stage's position list aligned with the surviving
// candidates. With no joins the caller should refine directly; the
// position remap costs no metered work (the translucent join is the
// order-preserving positional fast path).
func refineKeepingJoins(pp par.P, joins []*arJoinRT, refine func() *ar.Candidates, in *ar.Candidates) (*ar.Candidates, error) {
	refined := refine()
	if err := remapJoinLists(pp, joins, nil, in, refined); err != nil {
		return nil, err
	}
	return refined, nil
}

// remapJoinLists compacts the position lists of every join (except skip,
// usually the stage whose own operator already returned its filtered
// list) after an order-preserving selection shrank the candidate set from
// prev to cur. The translucent join recovers the surviving positions; the
// remap itself is unmetered bookkeeping.
func remapJoinLists(pp par.P, joins []*arJoinRT, skip *arJoinRT, prev, cur *ar.Candidates) error {
	any := false
	for _, jr := range joins {
		if jr != skip && jr.pos != nil {
			any = true
			break
		}
	}
	if !any {
		return nil
	}
	pos, err := ar.TranslucentJoin(prev.IDs, cur.IDs)
	if err != nil {
		// Selections are order-preserving subsets by construction.
		return fmt.Errorf("plan: selection broke candidate order: %w", err)
	}
	for _, jr := range joins {
		if jr == skip || jr.pos == nil {
			continue
		}
		keep := bat.OIDPool.GetN(len(pos))
		at := jr.pos
		pp.For(len(pos), func(mlo, mhi int) {
			for i := mlo; i < mhi; i++ {
				keep[i] = at[pos[i]]
			}
		})
		bat.OIDPool.Put(at)
		jr.pos = keep
	}
	mem.Ints.Put(pos)
	return nil
}

// remapJoinPos compacts earlier joins' position lists with an index keep
// list (device-side mask), aligning them with the filtered candidates.
func remapJoinPos(pp par.P, joins []*arJoinRT, keep []int) {
	for _, jr := range joins {
		if jr.pos == nil {
			continue
		}
		kept := bat.OIDPool.GetN(len(keep))
		at := jr.pos
		pp.For(len(keep), func(mlo, mhi int) {
			for i := mlo; i < mhi; i++ {
				kept[i] = at[keep[i]]
			}
		})
		bat.OIDPool.Put(at)
		jr.pos = kept
	}
}
