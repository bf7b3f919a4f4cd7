package plan

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/mem"
	"repro/internal/shard"
)

// TestClassicFilterPooledAlloc guards the classic scan's arena discipline:
// a steady-state single-filter query hands its position list back to the
// arena, so a run allocates a few KiB of headers and result rows, not a
// fresh column-sized OID buffer.
func TestClassicFilterPooledAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows := make([][]int64, 200000)
	for i := range rows {
		rows[i] = partPropRow(rng)
	}
	c := partPropCatalog(t, 0, shard.Hash, rows)
	q := Query{
		Table:   "fact",
		Filters: []Filter{{Col: "v", Lo: 0, Hi: 2000}},
		Aggs:    []AggSpec{{Name: "n", Func: Count}, {Name: "s", Func: Sum, Expr: Col("w")}},
	}
	run := func() {
		if _, err := c.Exec(context.Background(), q, ModeClassic, ExecOpts{Threads: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		run() // warm the arena
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	if perRun >= 64<<10 {
		if mem.RaceEnabled {
			t.Skipf("%d B/run under -race (sync.Pool drops Puts); strict guard runs in normal builds", perRun)
		}
		t.Fatalf("classic single-filter query allocates %d B/run in steady state, want < 64 KiB", perRun)
	}
}
