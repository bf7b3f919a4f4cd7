package plan

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/bwd"
	"repro/internal/stats"
	"repro/internal/store"
)

// estSource tags where a selectivity estimate came from, replacing the old
// -1.0 "unknown" sentinel. Sources are ordered weakest-first so a combined
// estimate (OR group, join chain) carries the weakest source it used.
type estSource uint8

const (
	estNone      estSource = iota // no statistics: column not decomposed
	estRowCount                   // textbook default scaled by row counts
	estDomain                     // relaxed code span over the code domain
	estHistogram                  // BWD bucket-occupancy histogram mass
)

// weakest combines two estimate sources, keeping the less trustworthy one.
func weakest(a, b estSource) estSource {
	if b < a {
		return b
	}
	return a
}

// rankedFilter is a filter with the selectivity estimate that ordered it —
// the pipeline keeps the estimate and its source so \explain can show why
// the optimizer chose this order (and when it was guessing).
type rankedFilter struct {
	f   Filter
	sel float64
	src estSource
}

// estSel returns the selectivity for cardinality folding, or -1 when the
// filter has no estimate at all (estApply treats -1 as unknown).
func (rf rankedFilter) estSel() float64 {
	if rf.src == estNone {
		return -1
	}
	return rf.sel
}

// orderFilters implements the optimizer of §III-A with real statistics:
// approximate selections are pushed down (executed first) in order of
// estimated selectivity, so the cheapest, most selective approximate scans
// shrink the candidate set before the more expensive operators run. The
// estimate is the histogram mass of the relaxed code range — the BWD
// bucket-occupancy counts maintained at decompose time — falling back to
// the code-domain fraction only when a column carries no histogram. It
// applies to fact-side and dimension-side filters alike; the caller passes
// the owning table.
func orderFilters(snap *execSnap, table string, filters []Filter) []rankedFilter {
	rs := make([]rankedFilter, 0, len(filters))
	for _, f := range filters {
		sel, src := estimateSelectivity(snap.get(table, f.Col), f)
		rs = append(rs, rankedFilter{f, sel, src})
	}
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].sel < rs[j].sel })
	return rs
}

// rankFilters wraps filters with their selectivity estimates without
// reordering — the classic pipeline preserves the written predicate order
// but still reports the estimates in \explain when decompositions exist.
// Undecomposed columns are tagged estNone so the explain surface prints
// `est=n/a (no stats)` instead of a magic number.
func rankFilters(snap *execSnap, table string, filters []Filter) []rankedFilter {
	rs := make([]rankedFilter, 0, len(filters))
	for _, f := range filters {
		rf := rankedFilter{f: f, src: estNone}
		if d := snap.get(table, f.Col); d != nil {
			rf.sel, rf.src = estimateSelectivity(d, f)
		}
		rs = append(rs, rf)
	}
	return rs
}

// estimateSelectivity estimates the fraction of rows admitted by the
// relaxed predicate: the occupancy-histogram mass of the relaxed code
// range when the decomposition carries one (it knows where the data
// actually sits, so skew cannot fool the ordering), else the code-domain
// fraction as before.
func estimateSelectivity(d *bwd.Column, f Filter) (float64, estSource) {
	if d == nil {
		return 0, estNone
	}
	r := d.Relax(f.Lo, f.Hi)
	h := stats.FromColumn(d)
	switch {
	case r.Empty:
		if h != nil {
			return 0, estHistogram
		}
		return 0, estDomain
	case r.Full:
		if h != nil {
			return 1, estHistogram
		}
		return 1, estDomain
	case h != nil:
		return h.CodeFraction(r.Lo, r.Hi), estHistogram
	default:
		span := float64(d.Dec.MaxApprox()) + 1
		return float64(r.Hi-r.Lo+1) / span, estDomain
	}
}

// defaultFilterSel is the fallback when a column has no decomposition to
// estimate from: textbook defaults scaled by the snapshot's row-count
// statistics — an equality predicate admits about one in sqrt(n) rows
// (distinct count unknown), a bounded range a quarter, a half-open range a
// third of them.
func defaultFilterSel(snap *store.Snapshot, f Filter) float64 {
	rows := float64(snap.Len())
	if rows <= 0 {
		return 0
	}
	switch {
	case f.Lo == NoLo && f.Hi == NoHi:
		return 1
	case f.Lo == f.Hi:
		return 1 / math.Sqrt(rows)
	case f.Lo != NoLo && f.Hi != NoHi:
		return 0.25
	default:
		return 1.0 / 3
	}
}

// estimateOrSelectivity bounds the selectivity of a disjunction group: the
// union of the disjuncts admits at most the sum of their fractions. A
// disjunct whose column lacks a decomposition no longer collapses the
// whole group to 1.0 — it contributes a row-count default instead, and the
// group's estimate is tagged with the weakest source used.
func estimateOrSelectivity(snap *execSnap, table string, group []Filter) (float64, estSource) {
	src := estHistogram
	var sum float64
	for _, f := range group {
		d := snap.get(table, f.Col)
		if d == nil {
			sum += defaultFilterSel(snap.snapFor(table), f)
			src = weakest(src, estRowCount)
			continue
		}
		s, fsrc := estimateSelectivity(d, f)
		sum += s
		src = weakest(src, fsrc)
	}
	if sum > 1 {
		sum = 1
	}
	return sum, src
}

// estimateJoinSel estimates the fraction of fact candidates surviving a
// join stage: the product of the dimension filters' selectivities, damped
// by the dimension's live fraction (an FK probe hitting a deleted
// dimension row drops the fact row).
func estimateJoinSel(snap *execSnap, j JoinSpec) (float64, estSource) {
	ds := snap.snapFor(j.Dim)
	src := estHistogram
	sel := 1.0
	if bl := ds.BaseLen(); bl > 0 {
		sel = float64(ds.LiveBase()) / float64(bl)
	}
	for _, f := range j.DimFilters {
		d := snap.get(j.Dim, f.Col)
		if d == nil {
			sel *= defaultFilterSel(ds, f)
			src = weakest(src, estRowCount)
			continue
		}
		s, fsrc := estimateSelectivity(d, f)
		sel *= s
		src = weakest(src, fsrc)
	}
	return sel, src
}

// execSnap is the set of table versions one query execution works against:
// the fact (and every joined dimension) store snapshot, pinned exactly
// once at query start, plus the resolved decompositions of every column an
// A&R plan touches. A&R operators key candidate code columns on bwd.Column
// pointer identity, so the approximate and refine phases must see the same
// pointer even if a concurrent merge or bwdecompose swaps the table
// version mid-query — pinning the snapshot guarantees exactly that, and
// makes the whole read snapshot isolated against concurrent DML.
type execSnap struct {
	fact *store.Snapshot
	dims map[string]*store.Snapshot // keyed by dimension table name
	decs map[string]*bwd.Column
}

func (s *execSnap) get(table, col string) *bwd.Column { return s.decs[table+"."+col] }

// snapFor returns the snapshot holding table's data (fact or a dimension).
func (s *execSnap) snapFor(table string) *store.Snapshot {
	if d, ok := s.dims[table]; ok {
		return d
	}
	return s.fact
}

// pinSnapshots resolves and pins the table versions the query reads
// (resolve's first half). Joins require the dimension side to be
// delta-free: the FK index and the join positions address the dimension
// base segment, so freshly inserted dimension rows must be merged before
// they are joinable.
func (q *Query) pinSnapshots(c *Catalog) (*execSnap, error) {
	fact, err := c.Table(q.Table)
	if err != nil {
		return nil, err
	}
	snap := &execSnap{fact: fact.Snapshot(), dims: map[string]*store.Snapshot{}, decs: map[string]*bwd.Column{}}
	for _, j := range q.Joins {
		if j.Dim == q.Table {
			return nil, fmt.Errorf("plan: table %s cannot join itself as a dimension", q.Table)
		}
		if _, dup := snap.dims[j.Dim]; dup {
			return nil, fmt.Errorf("plan: dimension table %s joined twice", j.Dim)
		}
		dim, err := c.Table(j.Dim)
		if err != nil {
			return nil, err
		}
		ds := dim.Snapshot()
		if n := ds.DeltaLen(); n > 0 {
			return nil, fmt.Errorf("plan: dimension table %s has %d unmerged delta rows; run \\merge %s (Catalog.MergeTable) before joining", j.Dim, n, j.Dim)
		}
		if ds.BaseLen() == 0 {
			// Guard both executors: the A&R dense-PK arithmetic reads
			// pk.Tail(0), and the classic path has no index to probe.
			return nil, fmt.Errorf("plan: dimension table %s is empty; load it before joining", j.Dim)
		}
		snap.dims[j.Dim] = ds
	}
	return snap, nil
}

// checkShape validates the parts of the query that are independent of the
// executor: aggregate shapes, HAVING indexes, ORDER BY indexes, hidden
// aggregate placement, and the LIMIT value.
func (q *Query) checkShape() error {
	seenHidden := false
	for _, a := range q.Aggs {
		if a.Hidden {
			seenHidden = true
		} else if seenHidden {
			return fmt.Errorf("plan: hidden aggregates must follow every visible aggregate")
		}
		if a.Expr == nil && a.Func != Count {
			return fmt.Errorf("plan: aggregate %s needs an expression", a.Func)
		}
	}
	for _, h := range q.Having {
		if h.Agg < 0 || h.Agg >= len(q.Aggs) {
			return fmt.Errorf("plan: HAVING references aggregate %d of %d", h.Agg, len(q.Aggs))
		}
	}
	for _, k := range q.OrderBy {
		if k.Key {
			if k.Index < 0 || k.Index >= len(q.GroupBy) {
				return fmt.Errorf("plan: ORDER BY references group key %d of %d", k.Index, len(q.GroupBy))
			}
		} else if k.Index < 0 || k.Index >= len(q.Aggs) {
			return fmt.Errorf("plan: ORDER BY references aggregate %d of %d", k.Index, len(q.Aggs))
		}
	}
	if q.Limit < 0 {
		return fmt.Errorf("plan: negative LIMIT %d", q.Limit)
	}
	for _, group := range q.Or {
		if len(group) == 0 {
			return fmt.Errorf("plan: empty OR group")
		}
	}
	if len(q.Filters) == 0 && len(q.Or) == 0 && len(q.GroupBy) == 0 && len(q.Aggs) == 0 {
		return fmt.Errorf("plan: empty query")
	}
	return nil
}

// walkCols visits every (table, column) reference of the query in a fixed
// order: fact filters, OR groups, grouping keys, each join's FK and
// dimension filters, then aggregate expression references.
func (q *Query) walkCols(visit func(table, col string) error) error {
	for _, f := range q.Filters {
		if err := visit(q.Table, f.Col); err != nil {
			return err
		}
	}
	for _, group := range q.Or {
		for _, f := range group {
			if err := visit(q.Table, f.Col); err != nil {
				return err
			}
		}
	}
	for _, g := range q.GroupBy {
		if err := visit(q.Table, g); err != nil {
			return err
		}
	}
	for _, j := range q.Joins {
		if err := visit(q.Table, j.FKCol); err != nil {
			return err
		}
		for _, f := range j.DimFilters {
			if err := visit(j.Dim, f.Col); err != nil {
				return err
			}
		}
	}
	for _, a := range q.Aggs {
		if a.Expr == nil {
			continue
		}
		for _, ref := range a.Expr.Cols() {
			tbl := q.Table
			if ref.IsDim() {
				if !q.joinsDim(ref.Dim) {
					return fmt.Errorf("plan: dimension column %s.%s referenced without joining %s", ref.Dim, ref.Name, ref.Dim)
				}
				tbl = ref.Dim
			}
			if err := visit(tbl, ref.Name); err != nil {
				return err
			}
		}
	}
	return nil
}

// joinsDim reports whether the query joins the named dimension table.
func (q *Query) joinsDim(dim string) bool {
	for _, j := range q.Joins {
		if j.Dim == dim {
			return true
		}
	}
	return false
}

// resolve is the one validation walk both executors share. It checks the
// query's shape and references, pins one snapshot per touched table, and
// records the decomposition of every referenced column that has one (the
// A&R scan reads them; the estimator reads their histograms under either
// executor). err is fatal for every executor: an unknown table or column,
// a bad shape, an unjoinable dimension. arErr, when set, is why A&R cannot
// run the query — a column without a decomposition, or no fact-side
// column to scan — which auto mode treats as classic by necessity.
func (q *Query) resolve(c *Catalog) (snap *execSnap, arErr, err error) {
	if err := q.checkShape(); err != nil {
		return nil, nil, err
	}
	snap, err = q.pinSnapshots(c)
	if err != nil {
		return nil, nil, err
	}
	err = q.walkCols(func(table, col string) error {
		key := table + "." + col
		if _, done := snap.decs[key]; done {
			return nil
		}
		ts := snap.snapFor(table)
		if d := ts.Dec(col); d != nil {
			snap.decs[key] = d
			return nil
		}
		if _, cerr := ts.Column(col); cerr != nil {
			return fmt.Errorf("plan: unknown column %s.%s", table, col)
		}
		if arErr == nil {
			arErr = fmt.Errorf("plan: column %s.%s is not bitwise decomposed; call Decompose first", table, col)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if arErr == nil && len(q.Filters) == 0 && len(q.Or) == 0 {
		// The approximation subplan needs a fact-side column to scan.
		if _, ok := q.anchorColumn(); !ok {
			arErr = fmt.Errorf("plan: A&R plan needs a fact-side column to scan (add a filter, grouping, or fact-column aggregate)")
		}
	}
	return snap, arErr, nil
}

// anchorColumn picks the column whose approximation the full-table scan
// uses when the query has no fact-side filters: a grouping key, a
// fact-side aggregate input, or — for dimension-only workloads — the
// first join's foreign-key column (always decomposed for an A&R join).
func (q *Query) anchorColumn() (string, bool) {
	if len(q.GroupBy) > 0 {
		return q.GroupBy[0], true
	}
	for _, a := range q.Aggs {
		if a.Expr == nil {
			continue
		}
		for _, ref := range a.Expr.Cols() {
			if !ref.IsDim() {
				return ref.Name, true
			}
		}
	}
	if len(q.Joins) > 0 {
		return q.Joins[0].FKCol, true
	}
	return "", false
}
