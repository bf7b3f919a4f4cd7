// The physical-operator pipeline layer: one executor skeleton that both
// execution models share. A pipeline is assembled from the logical Query
// in two pieces:
//
//   - a scan source — the A&R bit-sliced base scan (approximate select →
//     ship → refine) or the classic row-major bulk scan — that applies the
//     selections and joins and emits the same product either way: the
//     exact-value tuple stream of the base segment plus the delta
//     segment's contribution (scanned once, by the shared delta source in
//     exec_delta.go);
//   - the shared downstream operators — delta merge, grouping,
//     aggregation, HAVING, ORDER BY / LIMIT (top-k) — that run identically
//     for every scan strategy, so classic vs A&R is a scan-strategy choice
//     instead of a separate executor, and base/delta/deletion merging
//     exists in exactly one place.
//
// Assembly is also where the rule-based optimizer lives (§III-A): filters
// are cost-ordered by estimated selectivity — fact-side and, per join,
// dimension-side — and the chosen order is preserved on the pipeline so
// \explain can render it with the estimates.
package plan

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/ar"
	"repro/internal/bulk"
	"repro/internal/device"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/stats"
)

// pipeline is one assembled physical plan: the scan-strategy choice plus
// the cost-ordered predicate chains and join stages the scan will execute.
type pipeline struct {
	q       Query
	snap    *execSnap
	classic bool
	// noDevGroup disables the A&R device-side pre-grouping. Partition scans
	// of a scatter-gather execution set it: grouping must run on the host
	// where every partition's base and delta tuples meet.
	noDevGroup bool

	factFilters []rankedFilter
	orGroups    []orGroupStage
	joins       []joinStage
}

// orGroupStage is one disjunction operator: the group's predicates, the
// candidate-attachment group id, and the selectivity bound (with its
// estimate source) for \explain.
type orGroupStage struct {
	filters []Filter
	id      int
	sel     float64
	src     estSource
}

// joinStage is one FK-probe stage of the join chain with its (possibly
// cost-ordered) dimension-side filters. sel estimates the fraction of fact
// candidates surviving the probe itself (the dimension's live fraction);
// the dimension filters carry their own estimates.
type joinStage struct {
	spec       JoinSpec
	dimFilters []rankedFilter
	sel        float64
	src        estSource
}

// buildPipeline assembles the physical pipeline for one execution. The
// A&R assembly cost-orders the fact-side and dimension-side filters — and
// the join chain — by estimated selectivity from the statistics provider;
// the classic assembly preserves the written order (the bulk engine
// predates the statistics) but still records estimates for \explain when
// decompositions exist.
func buildPipeline(q Query, snap *execSnap, classic bool) *pipeline {
	pl := &pipeline{q: q, snap: snap, classic: classic}
	if classic {
		pl.factFilters = rankFilters(snap, q.Table, q.Filters)
	} else {
		pl.factFilters = orderFilters(snap, q.Table, q.Filters)
	}
	for i, group := range q.Or {
		sel, src := estimateOrSelectivity(snap, q.Table, group)
		pl.orGroups = append(pl.orGroups, orGroupStage{
			filters: group,
			id:      i + 1,
			sel:     sel,
			src:     src,
		})
	}
	type ordJoin struct {
		st  joinStage
		key float64
	}
	ord := make([]ordJoin, 0, len(q.Joins))
	for _, j := range q.Joins {
		st := joinStage{spec: j}
		st.sel = 1.0
		if ds := snap.snapFor(j.Dim); ds.BaseLen() > 0 {
			st.sel = float64(ds.LiveBase()) / float64(ds.BaseLen())
		}
		st.src = estRowCount
		if classic {
			st.dimFilters = rankFilters(snap, j.Dim, j.DimFilters)
		} else {
			st.dimFilters = orderFilters(snap, j.Dim, j.DimFilters)
		}
		// The ordering key is the stage's whole survival fraction: probe
		// survival times the dimension filters' combined selectivity.
		key, _ := estimateJoinSel(snap, j)
		ord = append(ord, ordJoin{st: st, key: key})
	}
	if !classic && len(ord) > 1 {
		// Cost-order the join chain: most selective stage first. FK probes
		// are n:1 and order-preserving over the fact candidate list, so the
		// surviving set — and therefore the result bytes — is identical for
		// every permutation; only the intermediate cardinalities shrink
		// sooner. Classic keeps the written order.
		sort.SliceStable(ord, func(a, b int) bool { return ord[a].key < ord[b].key })
	}
	for _, o := range ord {
		pl.joins = append(pl.joins, o.st)
	}
	return pl
}

// pipeState is the mutable state of one pipeline execution: the context,
// parallelism descriptor, meter and result under construction, plus — when
// tracing is on — the telemetry record and its per-operator marks.
type pipeState struct {
	ctx  context.Context
	opts ExecOpts
	pp   par.P
	m    *device.Meter
	res  *Result

	// Tracing state (tr nil = off): the checkpoint class the pipeline is
	// currently in, the wall-clock and meter marks of the previous operator
	// boundary, and the running cardinality estimate the selectivity model
	// predicts at this point of the chain (-1 once unknown). Tracing only
	// ever *reads* the meter — a traced run charges exactly what an
	// untraced one does.
	tr    *obs.Trace
	stage Stage
	mark  time.Time
	last  device.Meter
	est   float64
	// estCand is the planner's candidate-set estimate captured at the end
	// of the selection chain (-1 when unknown); the trace footer compares
	// it against the actual candidate count to expose estimation error.
	estCand int64
}

// traceRows is trace with the operator's actual output cardinality.
func (st *pipeState) traceRows(rows int, format string, args ...any) {
	st.emit(int64(rows), -1, fmt.Sprintf(format, args...))
}

// traceEst is trace with both the actual and the estimated cardinality —
// the per-filter est-vs-actual comparison \explain analyze renders.
func (st *pipeState) traceEst(rows int, est int64, format string, args ...any) {
	st.emit(int64(rows), est, fmt.Sprintf(format, args...))
}

// emit records the plan line, and — when tracing — one StageEvent carrying
// the wall-clock and simulated-meter deltas since the previous operator.
func (st *pipeState) emit(rows, est int64, line string) {
	st.res.Plan = append(st.res.Plan, line)
	if st.tr == nil {
		return
	}
	now := time.Now()
	ev := obs.StageEvent{
		Stage: string(st.stage),
		Op:    line,
		Rows:  rows,
		Est:   est,
		Wall:  now.Sub(st.mark),
		GPU:   st.m.GPU - st.last.GPU,
		CPU:   st.m.CPU - st.last.CPU,
		PCI:   st.m.PCI - st.last.PCI,
	}
	if rows > 0 {
		chunk := int64(st.pp.ChunkSize())
		ev.Morsels = (rows + chunk - 1) / chunk
	}
	st.tr.Add(ev)
	st.mark = now
	st.last = *st.m
}

// estApply folds one filter's selectivity estimate into the running
// cardinality estimate and returns the predicted output rows (-1 once any
// link of the chain had no estimate).
func (st *pipeState) estApply(sel float64) int64 {
	if sel < 0 || st.est < 0 {
		st.est = -1
		return -1
	}
	st.est *= sel
	return int64(st.est + 0.5)
}

// estReset restarts the running estimate at the live base cardinality —
// phase R walks the same filter chain a second time.
func (st *pipeState) estReset(pl *pipeline) {
	st.est = float64(pl.snap.fact.LiveBase())
}

// estCapture snapshots the running estimate as the candidate-set estimate
// the trace footer reports (kept at -1 once the chain lost its stats).
func (st *pipeState) estCapture() {
	if st.est >= 0 {
		st.estCand = int64(st.est + 0.5)
	} else {
		st.estCand = -1
	}
}

func (st *pipeState) step(s Stage) error {
	st.stage = s
	return step(st.ctx, st.opts, s)
}

// scanOut is what every scan source produces: the base segment's exact
// tuple values, the delta segment's contribution, and — A&R only — the
// device pre-grouping awaiting refinement with its surviving candidates,
// and the unfinalized phase-A partial of the scanned rows.
type scanOut struct {
	ectx    *exprCtx
	dset    *deltaSet
	mg      *ar.MultiGrouping
	refined *ar.Candidates
	approx  partialAnswer
}

// scan runs the pipeline's scan source.
func (pl *pipeline) scan(st *pipeState) (*scanOut, error) {
	if pl.classic {
		return pl.scanClassic(st)
	}
	return pl.scanAR(st)
}

// modeName is the scan strategy's name in plans and traces.
func modeName(classic bool) string {
	if classic {
		return "classic"
	}
	return "ar"
}

// newPipeState starts one execution on sys: a fresh meter, the result
// under construction and, when opts.Trace is set, the trace record named
// after the scan strategy. It returns a value so that a caller whose state
// does not outlive it keeps it off the heap.
func newPipeState(ctx context.Context, sys *device.System, opts ExecOpts, classic bool) pipeState {
	m := device.NewMeter(sys)
	st := pipeState{ctx: ctx, opts: opts, pp: opts.par(ctx), m: m, res: &Result{Meter: m}, estCand: -1}
	if opts.Trace {
		st.tr = &obs.Trace{Mode: modeName(classic), Threads: opts.threads(), Workers: opts.workers(), Start: time.Now()}
		st.mark = st.tr.Start
		st.res.Trace = st.tr
	}
	return st
}

// closeTrace writes the trace footer once the result is complete: total
// wall time, the candidate funnel, the output rows and the planner's
// candidate estimate.
func (st *pipeState) closeTrace() {
	if st.tr == nil {
		return
	}
	st.tr.Wall = time.Since(st.tr.Start)
	st.tr.Candidates = int64(st.res.Candidates)
	st.tr.Refined = int64(st.res.Refined)
	st.tr.Rows = int64(len(st.res.Rows))
	st.tr.EstCandidates = st.estCand
}

// run executes the assembled pipeline: scan source, then the shared tail.
func (pl *pipeline) run(ctx context.Context, sys *device.System, opts ExecOpts) (*Result, error) {
	st := newPipeState(ctx, sys, opts, pl.classic)
	st.res.InputBytes = pl.snap.inputBytes(pl.q, true)
	st.estReset(pl)
	out, err := pl.scan(&st)
	if err != nil {
		return nil, err
	}
	if !pl.classic {
		st.res.Approx = out.approx.finalize()
	}
	if err := pl.finish(&st, out); err != nil {
		return nil, err
	}
	// The surviving candidate set (and the pre-grouping's source when one
	// exists) is dead once the tail has aggregated.
	if out.refined != nil {
		if out.mg != nil && out.mg.Src != out.refined {
			out.mg.Src.Release()
		}
		out.refined.Release()
	}
	// A context cancelled mid-kernel leaves that kernel's output incomplete
	// (workers stop claiming morsels); the final check guarantees such
	// partial results are never returned as an answer.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st.closeTrace()
	return st.res, nil
}

// finish is the shared downstream pipeline: merge the delta contribution
// into the combined tuple set, group, aggregate, filter with HAVING, and
// order/limit. It is the only place base and delta tuples meet.
func (pl *pipeline) finish(st *pipeState, out *scanOut) error {
	q := &pl.q
	ectx := out.ectx
	ectx.appendDelta(out.dset)
	if out.dset != nil {
		st.res.Candidates += out.dset.n
		st.res.Refined += out.dset.n
	}

	// Grouping — refined from the A&R device pre-grouping when one exists,
	// rebuilt on the host over the combined tuple set otherwise.
	var grouping *bulk.Grouping
	var groupKeys [][]int64
	var err error
	switch {
	case out.mg != nil:
		if err := st.step(StageRefine); err != nil {
			return err
		}
		grouping, groupKeys, err = ar.GroupRefineMulti(st.pp, st.m, out.mg, out.refined)
		if err != nil {
			return err
		}
		st.traceRows(grouping.NGroups, "bwd.grouprefine(%s)", join(q.GroupBy))
	case len(q.GroupBy) > 0:
		stage, label := StageRefine, "group.merge"
		if pl.classic {
			stage, label = StageBulk, "group.new"
		}
		if err := st.step(stage); err != nil {
			return err
		}
		cols := make([][]int64, len(q.GroupBy))
		for k, g := range q.GroupBy {
			cols[k] = ectx.vals[ColRef{Name: g}]
		}
		grouping, groupKeys = bulk.GroupByMulti(st.pp, st.m, cols)
		st.traceRows(grouping.NGroups, "%s(%s)", label, join(q.GroupBy))
	}

	// Aggregation (§IV-F; sums of products are recomputed on the CPU due
	// to destructive distributivity, §IV-G). The A&R refinement aggregation
	// is a fused, statically expanded loop (§V-C) reading each input column
	// once — unlike the classic engine, which materializes every
	// arithmetic intermediate (§II-B).
	if err := st.step(StageAggregate); err != nil {
		return err
	}
	rows, err := aggregateRows(st.m, st.pp, *q, ectx, grouping, groupKeys, !pl.classic)
	if err != nil {
		return err
	}
	for _, a := range q.Aggs {
		if pl.classic {
			st.traceRows(len(rows), "aggr.%s(%s)", a.Func, a.Name)
		} else {
			st.traceRows(len(rows), "bwd.%srefine(%s)", a.Func, a.Name)
		}
	}
	sortRows(rows)
	rows = pl.applyHaving(st, rows)
	rows, err = pl.orderLimit(st, rows)
	if err != nil {
		return err
	}
	st.res.Rows = dropHidden(q, rows)
	// The combined tuple values are dead once aggregated: the result rows
	// own their key/value slices, so the exact-value buffers recycle.
	for _, vals := range ectx.vals {
		mem.I64.Put(vals)
	}
	return nil
}

// applyHaving filters the aggregated rows with the HAVING conjunction.
func (pl *pipeline) applyHaving(st *pipeState, rows []Row) []Row {
	q := &pl.q
	if len(q.Having) == 0 {
		return rows
	}
	kept := make([]Row, 0, len(rows))
	for _, r := range rows {
		ok := true
		for _, h := range q.Having {
			if v := r.Vals[h.Agg]; v < h.Lo || v > h.Hi {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, r)
		}
	}
	if st.m != nil {
		st.m.CPUWork(st.pp.NThreads(), int64(len(rows))*8*int64(len(q.Having)), 0, int64(len(rows))*int64(len(q.Having)))
	}
	st.traceRows(len(kept), "having(%d of %d groups)", len(kept), len(rows))
	return kept
}

// orderLimit applies ORDER BY and LIMIT: a morsel-parallel top-k heap
// when both are present, a full deterministic sort for ORDER BY alone, a
// plain prefix for LIMIT alone. Rows arrive in canonical group-key order,
// so the kernel's index tie-break is the deterministic key-order
// tie-break the result contract requires.
func (pl *pipeline) orderLimit(st *pipeState, rows []Row) ([]Row, error) {
	q := &pl.q
	if len(q.OrderBy) == 0 {
		if q.Limit > 0 && len(rows) > q.Limit {
			rows = rows[:q.Limit]
			st.traceRows(len(rows), "limit(%d)", q.Limit)
		}
		return rows, nil
	}
	less := func(i, j int) bool {
		for _, k := range q.OrderBy {
			var a, b int64
			if k.Key {
				a, b = rows[i].Keys[k.Index], rows[j].Keys[k.Index]
			} else {
				a, b = rows[i].Vals[k.Index], rows[j].Vals[k.Index]
			}
			if a != b {
				if k.Desc {
					return a > b
				}
				return a < b
			}
		}
		return false
	}
	k := q.Limit
	if k <= 0 || k > len(rows) {
		k = len(rows)
	}
	bytesPer := int64(8 * (len(q.GroupBy) + len(q.Aggs)))
	idx := bulk.TopK(st.pp, st.m, len(rows), k, bytesPer, less)
	out := make([]Row, len(idx))
	for i, at := range idx {
		out[i] = rows[at]
	}
	if q.Limit > 0 && q.Limit < len(rows) {
		st.traceRows(len(out), "order.topk(%s, k=%d of %d groups)", describeOrder(q), q.Limit, len(rows))
	} else {
		st.traceRows(len(out), "order.sort(%s)", describeOrder(q))
	}
	return out, nil
}

// dropHidden truncates each row's values to the visible aggregates,
// discarding the HAVING/ORDER BY-only columns.
func dropHidden(q *Query, rows []Row) []Row {
	visible := 0
	for _, a := range q.Aggs {
		if !a.Hidden {
			visible++
		}
	}
	if visible == len(q.Aggs) {
		return rows
	}
	for i := range rows {
		rows[i].Vals = rows[i].Vals[:visible]
	}
	return rows
}

// ---- Pipeline description (\explain) ----

// Describe renders the assembled pipeline without executing it: the scan
// strategy, the cost-ordered filters with their estimated selectivities,
// the join chain, and the delta / grouping / having / top-k stages.
func (pl *pipeline) describe() []string {
	q := &pl.q
	mode := modeName(pl.classic)
	// The running estimate folds each operator's selectivity into the live
	// base cardinality, so every rendered operator carries the planner's
	// predicted output rows. One estimate-free link (a filter on a column
	// with no decomposition) poisons the rest of the chain to n/a.
	est := float64(pl.snap.fact.LiveBase())
	known := true
	fold := func(sel float64, src estSource) string {
		if src == estNone || !known {
			known = false
			return " est=n/a (no stats)"
		}
		est *= sel
		return fmt.Sprintf(" (est sel %s, est=%d rows)", pctText(sel), int64(est+0.5))
	}
	var out []string
	out = append(out, fmt.Sprintf("pipeline: mode=%s over %s", mode, q.Table))
	if pl.classic {
		out = append(out, fmt.Sprintf("  scan: classic row-major base of %s (filters in written order) est=%d rows", q.Table, int64(est)))
	} else {
		out = append(out, fmt.Sprintf("  scan: a&r bit-sliced base of %s (filters cost-ordered by estimated selectivity) est=%d rows", q.Table, int64(est)))
	}
	for _, rf := range pl.factFilters {
		out = append(out, fmt.Sprintf("    filter %s.%s in %s%s", q.Table, rf.f.Col, rangeText(rf.f), fold(rf.sel, rf.src)))
	}
	for _, g := range pl.orGroups {
		parts := make([]string, len(g.filters))
		for i, f := range g.filters {
			parts[i] = fmt.Sprintf("%s.%s in %s", q.Table, f.Col, rangeText(f))
		}
		suffix := " est=n/a (no stats)"
		if known && g.src != estNone {
			est *= g.sel
			suffix = fmt.Sprintf(" (est sel <= %s, est=%d rows)", pctText(g.sel), int64(est+0.5))
		} else {
			known = false
		}
		out = append(out, fmt.Sprintf("    or: %s%s", strings.Join(parts, " | "), suffix))
	}
	for i, j := range pl.joins {
		out = append(out, fmt.Sprintf("  join %d/%d: %s.%s -> %s.%s (fk probe)%s",
			i+1, len(pl.joins), q.Table, j.spec.FKCol, j.spec.Dim, j.spec.DimPK, fold(j.sel, j.src)))
		for _, rf := range j.dimFilters {
			out = append(out, fmt.Sprintf("    filter %s.%s in %s%s", j.spec.Dim, rf.f.Col, rangeText(rf.f), fold(rf.sel, rf.src)))
		}
	}
	if n := pl.snap.fact.DeltaLen(); n > 0 {
		out = append(out, fmt.Sprintf("  delta: %d rows scanned row-major, merged before grouping", n))
	} else {
		out = append(out, "  delta: none")
	}
	if len(q.GroupBy) > 0 {
		how := "host rebuild over combined tuples"
		if !pl.classic && !pl.noDevGroup && pl.snap.fact.LiveDelta() == 0 {
			how = "device pre-group + refine"
		}
		line := fmt.Sprintf("  group: %s (%s)", join(q.GroupBy), how)
		if h := stats.FromColumn(pl.snap.get(q.Table, q.GroupBy[0])); h != nil {
			line += fmt.Sprintf(" est<=%d groups", h.Distinct())
		}
		out = append(out, line)
	}
	var aggs []string
	for _, a := range q.Aggs {
		label := fmt.Sprintf("%s=%s(%s)", a.Name, a.Func, exprText(a.Expr))
		if a.Hidden {
			label += " [hidden]"
		}
		aggs = append(aggs, label)
	}
	if len(aggs) > 0 {
		out = append(out, "  aggregate: "+strings.Join(aggs, ", "))
	}
	for _, h := range q.Having {
		out = append(out, fmt.Sprintf("  having: %s in %s", q.Aggs[h.Agg].Name, rangeText(Filter{Lo: h.Lo, Hi: h.Hi})))
	}
	if len(q.OrderBy) > 0 {
		kind := "full sort"
		if q.Limit > 0 {
			kind = fmt.Sprintf("top-%d heap", q.Limit)
		}
		out = append(out, fmt.Sprintf("  order: %s (%s)", describeOrder(q), kind))
	} else if q.Limit > 0 {
		out = append(out, fmt.Sprintf("  limit: %d", q.Limit))
	}
	return out
}

func describeOrder(q *Query) string {
	parts := make([]string, len(q.OrderBy))
	for i, k := range q.OrderBy {
		name := ""
		if k.Key {
			name = q.GroupBy[k.Index]
		} else {
			name = q.Aggs[k.Index].Name
		}
		dir := "asc"
		if k.Desc {
			dir = "desc"
		}
		parts[i] = name + " " + dir
	}
	return strings.Join(parts, ", ")
}

func rangeText(f Filter) string {
	lo, hi := "-inf", "+inf"
	if f.Lo != NoLo {
		lo = fmt.Sprintf("%d", f.Lo)
	}
	if f.Hi != NoHi {
		hi = fmt.Sprintf("%d", f.Hi)
	}
	return fmt.Sprintf("[%s,%s]", lo, hi)
}

func pctText(sel float64) string {
	return fmt.Sprintf("%.2f%%", sel*100)
}

func exprText(e Expr) string {
	if e == nil {
		return "*"
	}
	return e.String()
}

// ---- Shared aggregation operators ----

// aggregateRows evaluates the aggregate expressions over the exact values
// and groups them. Rows come out in group-discovery order; the caller
// establishes the canonical key order (sortRows) before HAVING and
// ORDER BY run.
func aggregateRows(m *device.Meter, pp par.P, q Query, ctx *exprCtx, grouping *bulk.Grouping, groupKeys [][]int64, fused bool) ([]Row, error) {
	threads := pp.NThreads()
	bulkMeter := m
	if m != nil && fused {
		// A&R refinement: one fused pass evaluates all expressions and
		// aggregates, reading each referenced column once (§V-C static
		// type expansion). Charge it here and run the arithmetic below
		// unmetered.
		uniq := map[ColRef]bool{}
		var nodes int
		for _, a := range q.Aggs {
			nodes++ // the aggregate update itself
			if a.Expr == nil {
				continue
			}
			nodes += a.Expr.Ops()
			for _, ref := range a.Expr.Cols() {
				uniq[ref] = true
			}
		}
		n := int64(ctx.n)
		bytes := n * 8 * int64(len(uniq))
		if grouping != nil {
			bytes += n * 4 // group ids
		}
		m.CPUWork(threads, bytes, 0, n*int64(nodes)*bulk.OpsArith)
		bulkMeter = nil
	} else if m != nil {
		// Classic bulk evaluation fully materializes one intermediate per
		// arithmetic node (§II-B); the aggregate passes below charge
		// separately through bulkMeter.
		for _, a := range q.Aggs {
			if a.Expr == nil {
				continue
			}
			if ops := a.Expr.Ops(); ops > 0 {
				n := int64(ctx.n)
				m.CPUWork(threads, n*24*int64(ops), 0, n*int64(ops)*bulk.OpsArith)
			}
		}
	}
	m = bulkMeter
	if grouping == nil {
		row := Row{}
		for _, a := range q.Aggs {
			v, err := globalAgg(m, pp, a, ctx)
			if err != nil {
				return nil, err
			}
			row.Vals = append(row.Vals, v)
		}
		return []Row{row}, nil
	}
	rows := make([]Row, grouping.NGroups)
	for g := 0; g < grouping.NGroups; g++ {
		keys := make([]int64, len(groupKeys))
		for k := range groupKeys {
			keys[k] = groupKeys[k][g]
		}
		rows[g].Keys = keys
	}
	for _, a := range q.Aggs {
		var per []int64
		switch a.Func {
		case Count:
			per = bulk.CountGrouped(pp, m, grouping)
		case Sum:
			per = bulk.SumGrouped(pp, m, a.Expr.Eval(ctx), grouping)
		case Min:
			per = bulk.MinGrouped(pp, m, a.Expr.Eval(ctx), grouping)
		case Max:
			per = bulk.MaxGrouped(pp, m, a.Expr.Eval(ctx), grouping)
		case Avg:
			sums := bulk.SumGrouped(pp, m, a.Expr.Eval(ctx), grouping)
			counts := bulk.CountGrouped(pp, m, grouping)
			per = mem.I64.GetN(len(sums))
			for i := range per {
				per[i] = 0
				if counts[i] > 0 {
					per[i] = sums[i] / counts[i]
				}
			}
			mem.I64.Put(sums)
			mem.I64.Put(counts)
		default:
			return nil, fmt.Errorf("plan: unsupported aggregate %v", a.Func)
		}
		for g := range rows {
			rows[g].Vals = append(rows[g].Vals, per[g])
		}
		mem.I64.Put(per)
	}
	return rows, nil
}

func globalAgg(m *device.Meter, pp par.P, a AggSpec, ctx *exprCtx) (int64, error) {
	switch a.Func {
	case Count:
		return int64(ctx.n), nil
	case Sum:
		return bulk.Sum(pp, m, a.Expr.Eval(ctx)), nil
	case Min:
		v, _ := bulk.Min(pp, m, a.Expr.Eval(ctx))
		return v, nil
	case Max:
		v, _ := bulk.Max(pp, m, a.Expr.Eval(ctx))
		return v, nil
	case Avg:
		vals := a.Expr.Eval(ctx)
		if len(vals) == 0 {
			return 0, nil
		}
		return bulk.Sum(pp, m, vals) / int64(len(vals)), nil
	default:
		return 0, fmt.Errorf("plan: unsupported aggregate %v", a.Func)
	}
}

// inputBytes sums the physical footprint of every column the query reads —
// the stream-baseline input volume — over the pinned snapshots, including
// the row-major delta segment when present. withDims=false leaves out the
// joined dimension columns, which a scatter counts once, with its first leg.
func (s *execSnap) inputBytes(q Query, withDims bool) int64 {
	seen := map[string]bool{}
	var total int64
	add := func(table, col string) error {
		key := table + "." + col
		if seen[key] || (!withDims && table != q.Table) {
			return nil
		}
		seen[key] = true
		b, err := s.snapFor(table).Column(col)
		if err != nil {
			return nil // validation already rejected truly unknown columns
		}
		total += b.TailBytes()
		return nil
	}
	_ = q.walkCols(add)
	total += s.fact.DeltaBytes()
	return total
}

func join(ss []string) string {
	return strings.Join(ss, ",")
}
