package plan

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bat"
	"repro/internal/device"
)

// approxCatalog holds one decomposed column fact.a over vals.
func approxCatalog(t *testing.T, vals []int64, bits uint) *Catalog {
	t.Helper()
	c := NewCatalog(device.PaperSystem())
	tbl := NewTable("fact")
	if err := tbl.AddColumn("a", bat.NewDense(vals, bat.Width64)); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decompose("fact", "a", bits); err != nil {
		t.Fatal(err)
	}
	return c
}

// checkApproxAggs asserts that every phase-A aggregate bound of an
// ungrouped A&R result contains the exact value the refinement returned.
// MIN, MAX and AVG over zero qualifying rows have no value to contain.
func checkApproxAggs(t *testing.T, label string, q Query, res *Result) {
	t.Helper()
	if len(q.GroupBy) > 0 || len(res.Rows) != 1 {
		return
	}
	for k, a := range q.Aggs {
		if res.Refined == 0 && (a.Func == Min || a.Func == Max || a.Func == Avg) {
			continue
		}
		if iv, exact := res.Approx.Aggs[k], res.Rows[0].Vals[k]; !iv.Contains(exact) {
			t.Fatalf("%s: phase-A %s bound %v excludes exact %d", label, a.Name, iv, exact)
		}
	}
}

// TestMinApproxFig6Trap is the Fig 6 trap at the engine level: a possible
// false positive whose approximation looks minimal (or maximal) must not
// tighten the inner bound. With 12 major bits over [3, 1000000] a bucket
// spans 256 values, so 3 and 5 share bucket 0 with the lower predicate
// bound 7, and 999990 shares the top bucket with the upper bound 999980:
// all four are uncertain candidates, and only 1000 qualifies.
func TestMinApproxFig6Trap(t *testing.T) {
	c := approxCatalog(t, []int64{5, 1000, 1000000, 3, 999990}, 12)
	q := Query{
		Table:   "fact",
		Filters: []Filter{{Col: "a", Lo: 7, Hi: 999980}},
		Aggs:    []AggSpec{{Name: "mn", Func: Min, Expr: Col("a")}, {Name: "mx", Func: Max, Expr: Col("a")}},
	}
	res, err := c.Exec(context.Background(), q, ModeAR, ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0].Vals; got[0] != 1000 || got[1] != 1000 {
		t.Fatalf("min, max = %v, want 1000, 1000", got)
	}
	checkApproxAggs(t, "fig6", q, res)
}

// TestAvgApproxNegativeSum pins the phase-A AVG bound when the sum bound
// is negative: dividing the low sum by the high count (and the high sum by
// the low count) is only valid for non-negative sums.
func TestAvgApproxNegativeSum(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		vals := make([]int64, 2000)
		for i := range vals {
			vals[i] = -rng.Int63n(1 << 20) // (-2^20, 0]
		}
		c := approxCatalog(t, vals, 10)
		lo := -rng.Int63n(1 << 20)
		q := Query{
			Table:   "fact",
			Filters: []Filter{{Col: "a", Lo: lo, Hi: lo + 300000}},
			Aggs:    []AggSpec{{Name: "av", Func: Avg, Expr: Col("a")}},
		}
		res, err := c.Exec(context.Background(), q, ModeAR, ExecOpts{})
		if err != nil {
			t.Fatal(err)
		}
		checkApproxAggs(t, fmt.Sprintf("seed %d", seed), q, res)
	}
}
