// The phase-A bounds algebra (§III item 4, §IV-F). A partialAnswer is the
// unfinalized phase-A answer of any set of rows: a scan's candidates, a
// delta segment, a classic leg's exact tuples, a whole partition. Partials
// form a monoid. Rows fold into one with the row step (aggPartial.add), two
// combine with merge (associative, with the empty partial as identity), and
// one finalize at the end makes the ApproxAnswer. So rows with the same
// intervals and certainty give the same bounds however they are split into
// candidates, delta rows and partitions.
//
// The rules: COUNT and SUM add; a row that may be a false positive adds
// anything between nothing and its interval to a SUM; only a row certain to
// qualify may tighten the inner MIN/MAX bound (the trap of Fig 6); AVG is
// the SUM over the COUNT, divided once, at finalize.
package plan

import (
	"math"

	"repro/internal/ar"
	"repro/internal/device"
)

// partialAnswer is the phase-A state of a set of rows.
type partialAnswer struct {
	count ar.Interval  // rows certain to qualify .. rows that may qualify
	aggs  []aggPartial // one per query aggregate
}

// aggPartial is one aggregate's phase-A state: the sum of the rows'
// contributions (read by SUM and AVG), and the extreme state read by MIN
// and MAX. hull spans every row; its Lo is MIN's outer bound and the
// weakest inner bound MAX can fall back to, its Hi the reverse. inner
// holds the inner ends of certain rows only: the largest Lo (MAX's inner
// bound) and the smallest Hi (MIN's inner bound). The empty state starts
// both beyond every value, so no first-row case is needed.
type aggPartial struct {
	f     AggFunc
	sum   ar.Interval
	hull  ar.Interval
	inner ar.Interval
}

// newPartial returns the empty partial for aggs: the identity of merge.
func newPartial(aggs []AggSpec) partialAnswer {
	p := partialAnswer{aggs: make([]aggPartial, len(aggs))}
	for k, a := range aggs {
		p.aggs[k] = aggPartial{
			f:     a.Func,
			hull:  ar.Interval{Lo: math.MaxInt64, Hi: math.MinInt64},
			inner: ar.Interval{Lo: math.MinInt64, Hi: math.MaxInt64},
		}
	}
	return p
}

// add is the row step: it folds one row's value interval into the
// aggregate; certain reports whether the row is known to qualify. The
// caller counts the row in partialAnswer.count. It updates every field
// whatever the aggregate function, which keeps it small enough to inline
// in the per-candidate loop.
func (a *aggPartial) add(iv ar.Interval, certain bool) {
	a.hull.Lo, a.hull.Hi = min(a.hull.Lo, iv.Lo), max(a.hull.Hi, iv.Hi)
	if certain {
		a.inner.Lo, a.inner.Hi = max(a.inner.Lo, iv.Lo), min(a.inner.Hi, iv.Hi)
	} else {
		// A false positive contributes nothing to a sum.
		iv.Lo, iv.Hi = min(iv.Lo, 0), max(iv.Hi, 0)
	}
	a.sum.Lo += iv.Lo
	a.sum.Hi += iv.Hi
}

// foldExact folds ctx's rows as exact values that certainly qualify: the
// delta rows of an A&R scan, or a classic leg's tuples.
func (p *partialAnswer) foldExact(aggs []AggSpec, ctx *exprCtx) {
	p.count.Lo += int64(ctx.n)
	p.count.Hi += int64(ctx.n)
	for k, a := range aggs {
		if a.Func == Count {
			continue
		}
		ap := &p.aggs[k]
		for _, v := range a.Expr.Eval(ctx) {
			ap.add(ar.Exact(v), true)
		}
	}
}

// merge folds o into p, as if o's rows had been added to p after its own.
func (p *partialAnswer) merge(o *partialAnswer) {
	p.count.Lo += o.count.Lo
	p.count.Hi += o.count.Hi
	for k := range p.aggs {
		a, b := &p.aggs[k], &o.aggs[k]
		a.sum.Lo += b.sum.Lo
		a.sum.Hi += b.sum.Hi
		a.hull.Lo, a.hull.Hi = min(a.hull.Lo, b.hull.Lo), max(a.hull.Hi, b.hull.Hi)
		a.inner.Lo, a.inner.Hi = max(a.inner.Lo, b.inner.Lo), min(a.inner.Hi, b.inner.Hi)
	}
}

// finalize makes the phase-A answer. With no row that may qualify, every
// bound is the zero interval. Without a certain row, the inner MIN/MAX
// bound is the weakest any row admits (the far end of the hull); with one,
// the certain rows' inner end never lies beyond the hull, so the nearer of
// the two is the inner bound either way.
func (p *partialAnswer) finalize() ApproxAnswer {
	out := ApproxAnswer{Count: p.count, Aggs: make([]ar.Interval, len(p.aggs))}
	for k, a := range p.aggs {
		switch {
		case a.f == Count:
			out.Aggs[k] = p.count
		case a.f == Sum:
			out.Aggs[k] = a.sum
		case a.f == Avg && p.count.Lo > 0:
			out.Aggs[k] = avgBounds(a.sum, p.count)
		case a.f == Avg:
			out.Aggs[k] = a.sum
		case p.count.Hi == 0:
			// MIN/MAX over no row that may qualify
		case a.f == Min:
			out.Aggs[k] = ar.Interval{Lo: a.hull.Lo, Hi: min(a.inner.Hi, a.hull.Hi)}
		case a.f == Max:
			out.Aggs[k] = ar.Interval{Lo: max(a.inner.Lo, a.hull.Lo), Hi: a.hull.Hi}
		}
	}
	return out
}

// approxAnswer folds the phase-A partial of an A&R scan: the candidate
// count and each aggregate's per-candidate bounds from the approximate
// projections over the base segment, then the qualifying delta rows (the
// delta is host resident and undecomposed, so its values are exact).
func approxAnswer(m *device.Meter, q Query, cands *ar.Candidates, projections map[ColRef]*ar.Projection, delta *deltaSet) partialAnswer {
	p := newPartial(q.Aggs)
	p.count = ar.CountApprox(m, cands)
	bctx := &boundsCtx{n: cands.Len(), vals: map[ColRef][]ar.Interval{}}
	for ref, pr := range projections {
		ivs := make([]ar.Interval, pr.Len())
		err := pr.Col.Dec.Err()
		for i := range ivs {
			lo := pr.ApproxLow(i)
			ivs[i] = ar.Interval{Lo: lo, Hi: lo + err}
		}
		bctx.vals[ref] = ivs
	}
	for k, a := range q.Aggs {
		if a.Func == Count {
			continue
		}
		ap := &p.aggs[k]
		for i, iv := range a.Expr.Bounds(bctx) {
			ap.add(iv, cands.Certain(i))
		}
	}
	if delta != nil {
		p.foldExact(q.Aggs, &exprCtx{n: delta.n, vals: delta.vals})
	}
	return p
}

// avgBounds bounds sum/count for a sum in total and a count in cnt
// (cnt.Lo > 0). The truncating quotient is monotone in each operand, so
// its extremes over the box lie at the four corners; taking the min and
// max of all four stays valid whatever the signs of the sum bounds.
func avgBounds(total, cnt ar.Interval) ar.Interval {
	q := [4]int64{total.Lo / cnt.Lo, total.Lo / cnt.Hi, total.Hi / cnt.Lo, total.Hi / cnt.Hi}
	out := ar.Interval{Lo: q[0], Hi: q[0]}
	for _, v := range q[1:] {
		out.Lo = min(out.Lo, v)
		out.Hi = max(out.Hi, v)
	}
	return out
}
