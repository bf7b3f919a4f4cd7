package plan

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/shard"
)

// BenchmarkPartitionScaling measures the wall-clock cost of one grouped
// A&R scatter-gather aggregation as the partition count grows, against the
// unpartitioned pipeline on the same rows. The partition legs run
// concurrently (one goroutine per partition under the stream gate), so
// this tracks the real coordination overhead of the scatter/gather stages,
// not the simulated device times (those are covered by the partition
// experiment in internal/experiments).
func BenchmarkPartitionScaling(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	rows := make([][]int64, 200_000)
	for i := range rows {
		rows[i] = partPropRow(rng)
	}
	q := Query{
		Table:   "fact",
		Filters: []Filter{{Col: "v", Lo: 0, Hi: 1023}},
		GroupBy: []string{"g"},
		Aggs: []AggSpec{
			{Name: "n", Func: Count},
			{Name: "s", Func: Sum, Expr: Col("w")},
		},
	}
	for _, parts := range []int{0, 1, 2, 4, 8} {
		label := "unpartitioned"
		if parts > 0 {
			label = fmt.Sprintf("parts=%d", parts)
		}
		b.Run(label, func(b *testing.B) {
			c := partPropCatalog(b, parts, shard.Hash, rows)
			if _, err := c.MergeTable(nil, "fact", false); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Exec(context.Background(), q, ModeAR, ExecOpts{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
