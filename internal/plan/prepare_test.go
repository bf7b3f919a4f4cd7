package plan

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/shard"
)

// TestPreparedRunsOnItsSnapshot checks that a prepared query runs against
// the snapshots Prepare pinned: rows inserted, a merge, and a
// re-decomposition at another width between Prepare and Run change
// neither its rows (they equal the oracle taken at Prepare time) nor its
// meter (bit-identical to a Run made right after Prepare) — on a plain
// table and on a hash-partitioned twin.
func TestPreparedRunsOnItsSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	base := make([][]int64, 3000)
	for i := range base {
		base[i] = partPropRow(rng)
	}
	more := make([][]int64, 500)
	for i := range more {
		more[i] = partPropRow(rng)
	}
	q := Query{
		Table:   "fact",
		Filters: []Filter{{Col: "v", Lo: 300, Hi: 2500}},
		GroupBy: []string{"g"},
		Aggs:    []AggSpec{{Name: "n", Func: Count}, {Name: "s", Func: Sum, Expr: Col("w")}},
	}
	ctx := context.Background()
	serial := ExecOpts{Threads: 1, Workers: 1}
	for _, parts := range []int{0, 3} {
		c := partPropCatalog(t, parts, shard.Hash, base)
		oracle, err := c.Exec(ctx, q, ModeClassic, serial)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := c.Prepare(q, ModeAR)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Run(ctx, serial)
		if err != nil {
			t.Fatal(err)
		}
		p, err := c.Prepare(q, ModeAR)
		if err != nil {
			t.Fatal(err)
		}

		if _, err := c.InsertRows(nil, "fact", more); err != nil {
			t.Fatal(err)
		}
		if _, err := c.MergeTable(nil, "fact", false); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Decompose("fact", "v", 10); err != nil {
			t.Fatal(err)
		}
		now, err := c.Exec(ctx, q, ModeClassic, serial)
		if err != nil {
			t.Fatal(err)
		}
		if EqualResults(now.Rows, oracle.Rows) {
			t.Fatalf("parts=%d: the writes did not change the answer; the test proves nothing", parts)
		}

		got, err := p.Run(ctx, serial)
		if err != nil {
			t.Fatal(err)
		}
		if !EqualResults(got.Rows, oracle.Rows) {
			t.Errorf("parts=%d: prepared run rows %v, want the Prepare-time oracle %v", parts, got.Rows, oracle.Rows)
		}
		if *got.Meter != *want.Meter {
			t.Errorf("parts=%d: prepared run meter %+v, want %+v from the run right after Prepare", parts, *got.Meter, *want.Meter)
		}
	}
}
