package plan

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ar"
	"repro/internal/shard"
)

// boundsRow is one row of the phase-A algebra: whether it certainly
// qualifies and its value interval under each aggregate.
type boundsRow struct {
	certain bool
	ivs     []ar.Interval
}

// foldRows folds rows into the empty partial through the row step.
func foldRows(aggs []AggSpec, rows []boundsRow) partialAnswer {
	p := newPartial(aggs)
	for _, r := range rows {
		p.count.Hi++
		if r.certain {
			p.count.Lo++
		}
		for k := range p.aggs {
			p.aggs[k].add(r.ivs[k], r.certain)
		}
	}
	return p
}

// TestPropBoundsAlgebra checks the monoid laws of the phase-A partial on
// random rows under every AggFunc: folding all rows equals merging the
// folds of any prefix/suffix split (empty sides included, so the empty
// partial is the identity), and the empty partial finalizes to zero
// intervals. On small values, where no sum wraps, it also checks that the
// finalized bounds contain the answer of random realizations: every row
// takes a value inside its interval, and each uncertain row qualifies or
// not at random.
func TestPropBoundsAlgebra(t *testing.T) {
	aggs := []AggSpec{{Func: Count}, {Func: Sum}, {Func: Min}, {Func: Max}, {Func: Avg}}
	identity := newPartial(aggs)
	empty := identity.finalize()
	if empty.Count != (ar.Interval{}) {
		t.Fatalf("empty partial count %v", empty.Count)
	}
	for k, iv := range empty.Aggs {
		if iv != (ar.Interval{}) {
			t.Fatalf("empty partial %s finalizes to %v", aggs[k].Func, iv)
		}
	}

	rng := rand.New(rand.NewSource(14))
	edges := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	wide := func() int64 {
		if rng.Intn(4) == 0 {
			return edges[rng.Intn(len(edges))]
		}
		return rng.Int63() - rng.Int63()
	}
	small := func() int64 { return rng.Int63n(2001) - 1000 }
	for trial := 0; trial < 400; trial++ {
		val, sound := wide, trial%2 == 1
		if sound {
			val = small
		}
		rows := make([]boundsRow, rng.Intn(12))
		for i := range rows {
			rows[i].certain = rng.Intn(2) == 0
			for range aggs {
				a, b := val(), val()
				rows[i].ivs = append(rows[i].ivs, ar.Interval{Lo: min(a, b), Hi: max(a, b)})
			}
		}
		whole := foldRows(aggs, rows)
		for split := 0; split <= len(rows); split++ {
			got := foldRows(aggs, rows[:split])
			right := foldRows(aggs, rows[split:])
			got.merge(&right)
			if !reflect.DeepEqual(got, whole) {
				t.Fatalf("trial %d split %d/%d: merged %+v, folded %+v", trial, split, len(rows), got, whole)
			}
		}
		if sound {
			checkRealizations(t, fmt.Sprintf("trial %d", trial), rng, aggs, rows, whole.finalize())
		}
	}
}

// checkRealizations draws realizations of rows and checks that ans, their
// finalized phase-A answer, contains each one's exact aggregates (MIN, MAX
// and AVG only when some row qualifies, as checkApproxAggs does).
func checkRealizations(t *testing.T, label string, rng *rand.Rand, aggs []AggSpec, rows []boundsRow, ans ApproxAnswer) {
	t.Helper()
	for draw := 0; draw < 8; draw++ {
		qual := make([]bool, len(rows))
		var n int64
		for i, r := range rows {
			if qual[i] = r.certain || rng.Intn(2) == 0; qual[i] {
				n++
			}
		}
		if !ans.Count.Contains(n) {
			t.Fatalf("%s: count bound %v excludes %d", label, ans.Count, n)
		}
		for k, a := range aggs {
			var vals []int64
			for i, r := range rows {
				if iv := r.ivs[k]; qual[i] {
					vals = append(vals, iv.Lo+rng.Int63n(iv.Hi-iv.Lo+1))
				}
			}
			if len(vals) == 0 && a.Func != Count && a.Func != Sum {
				continue
			}
			exact := int64(len(vals))
			switch a.Func {
			case Sum, Avg:
				var sum int64
				for _, v := range vals {
					sum += v
				}
				exact = sum
				if a.Func == Avg {
					exact = sum / int64(len(vals))
				}
			case Min:
				exact = slices.Min(vals)
			case Max:
				exact = slices.Max(vals)
			}
			if !ans.Aggs[k].Contains(exact) {
				t.Fatalf("%s: %s bound %v excludes %d", label, a.Func, ans.Aggs[k], exact)
			}
		}
	}
}

// TestPartitionedAvgIsSumOverCount: a scatter's phase-A AVG bound is the
// one rule a plain table uses, avgBounds of the gathered SUM over the
// gathered COUNT, not a hull of per-partition averages.
func TestPartitionedAvgIsSumOverCount(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rows := make([][]int64, 2000)
	for i := range rows {
		rows[i] = partPropRow(rng)
	}
	c := partPropCatalog(t, 3, shard.Hash, rows)
	q := Query{
		Table:   "fact",
		Filters: []Filter{{Col: "v", Lo: 100, Hi: 3000}},
		Aggs: []AggSpec{
			{Name: "n", Func: Count},
			{Name: "s", Func: Sum, Expr: Col("w")},
			{Name: "a", Func: Avg, Expr: Col("w")},
		},
	}
	res, err := c.Exec(context.Background(), q, ModeAR, ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	checkApproxAggs(t, "hash3", q, res)
	ans := res.Approx
	if ans.Count.Lo == 0 {
		t.Fatalf("no certain candidates: %v", ans.Count)
	}
	if want := avgBounds(ans.Aggs[1], ans.Count); ans.Aggs[2] != want {
		t.Fatalf("partitioned AVG bound %v, want avgBounds(%v, %v) = %v", ans.Aggs[2], ans.Aggs[1], ans.Count, want)
	}
}
