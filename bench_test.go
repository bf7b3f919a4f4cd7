// Package repro's root benchmarks: one testing.B benchmark per evaluation
// table/figure of the paper (see DESIGN.md §3 and EXPERIMENTS.md), plus
// ablation benches for the design choices the A&R paradigm rests on.
//
// The per-figure benchmarks wall-clock the full experiment harness — real
// operator execution plus simulated-cost accounting — at the Quick data
// scale; `go run ./cmd/arbench` prints the actual reproduced figures.
package repro_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ar"
	"repro/internal/bat"
	"repro/internal/bulk"
	"repro/internal/bwd"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/par"
	"repro/internal/plan"
	"repro/internal/spatial"
	"repro/internal/tpch"
)

// benchSessions opens one forced-A&R and one forced-classic session over a
// catalog — end-to-end benches drive the same engine facade the shell and
// server use, so the serving path itself is under the clock.
func benchSessions(c *plan.Catalog) (arSess, clSess *engine.Session) {
	eng := engine.New(c, engine.Options{})
	return eng.SessionFor(engine.ModeAR), eng.SessionFor(engine.ModeClassic)
}

func benchFigure(b *testing.B, fn func(experiments.Options) (*experiments.Figure, error)) {
	b.Helper()
	opts := experiments.Quick()
	for i := 0; i < b.N; i++ {
		if _, err := fn(opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8aSelectionGPUResident(b *testing.B)  { benchFigure(b, experiments.Fig8a) }
func BenchmarkFig8bSelectionDistributed(b *testing.B)  { benchFigure(b, experiments.Fig8b) }
func BenchmarkFig8cSelectionBits(b *testing.B)         { benchFigure(b, experiments.Fig8c) }
func BenchmarkFig8dProjectionGPUResident(b *testing.B) { benchFigure(b, experiments.Fig8d) }
func BenchmarkFig8eProjectionDistributed(b *testing.B) { benchFigure(b, experiments.Fig8e) }
func BenchmarkFig8fGrouping(b *testing.B)              { benchFigure(b, experiments.Fig8f) }
func BenchmarkFig9SpatialRangeQuery(b *testing.B)      { benchFigure(b, experiments.Fig9) }
func BenchmarkFig10aTPCHQ1(b *testing.B)               { benchFigure(b, experiments.Fig10a) }
func BenchmarkFig10bTPCHQ6(b *testing.B)               { benchFigure(b, experiments.Fig10b) }
func BenchmarkFig10cTPCHQ14(b *testing.B)              { benchFigure(b, experiments.Fig10c) }
func BenchmarkFig11Throughput(b *testing.B)            { benchFigure(b, experiments.Fig11) }
func BenchmarkIngestExperiment(b *testing.B)           { benchFigure(b, experiments.Ingest) }

func BenchmarkTable1SpatialSetup(b *testing.B) {
	opts := experiments.Quick()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Operator-level wall-clock benchmarks: the real Go implementations,
// no simulation accounting (nil meters).

const benchN = 1 << 20

func benchColumn(bits uint) (*bwd.Column, *bat.BAT) {
	rng := rand.New(rand.NewSource(9))
	vals := make([]int64, benchN)
	for i := range vals {
		vals[i] = int64(rng.Intn(benchN))
	}
	b := bat.NewDense(vals, bat.Width32)
	col, err := bwd.Decompose(b, bits, nil)
	if err != nil {
		panic(err)
	}
	return col, b
}

func BenchmarkOpSelectApprox(b *testing.B) {
	col, _ := benchColumn(12)
	r := col.Relax(0, benchN/10)
	b.SetBytes(col.Approx.Bytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ar.SelectApprox(nil, col, r)
	}
}

func BenchmarkOpSelectRefine(b *testing.B) {
	col, _ := benchColumn(12)
	cands := ar.SelectApprox(nil, col, col.Relax(0, benchN/10))
	b.SetBytes(int64(cands.Len()) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ar.SelectRefine(par.Bill(1), nil, col, 0, benchN/10, cands)
	}
}

func BenchmarkOpSelectClassic(b *testing.B) {
	_, raw := benchColumn(12)
	b.SetBytes(raw.TailBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bulk.SelectRange(par.Bill(1), nil, raw, 0, benchN/10)
	}
}

func BenchmarkOpProjectApproxRefine(b *testing.B) {
	selCol, _ := benchColumn(12)
	prjCol, _ := benchColumn(12)
	cands := ar.SelectApprox(nil, selCol, selCol.Relax(0, benchN/10))
	refined, _ := ar.SelectRefine(par.Bill(1), nil, selCol, 0, benchN/10, cands)
	b.SetBytes(int64(refined.Len()) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proj := ar.ProjectApprox(nil, prjCol, cands)
		if _, err := ar.ProjectRefine(par.Bill(1), nil, proj, refined); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpGroupApprox(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	keys := make([]int64, benchN)
	for i := range keys {
		keys[i] = int64(rng.Intn(100))
	}
	col, err := bwd.Decompose(bat.NewDense(keys, bat.Width32), 32, nil)
	if err != nil {
		b.Fatal(err)
	}
	cands := ar.SelectApprox(nil, col, bwd.ApproxRange{Full: true})
	b.SetBytes(int64(benchN) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ar.GroupApprox(nil, col, cands)
	}
}

func BenchmarkOpTranslucentJoin(b *testing.B) {
	col, _ := benchColumn(12)
	cands := ar.SelectApprox(nil, col, col.Relax(0, benchN/2))
	refined, _ := ar.SelectRefine(par.Bill(1), nil, col, 0, benchN/4, cands)
	b.SetBytes(int64(cands.Len()) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ar.TranslucentJoin(cands.IDs, refined.IDs); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablation benches (design choices called out in DESIGN.md).

// Ablation: decomposition resolution. How does the device-bit budget move
// the full A&R selection cost? (The Fig 8c trade-off as a micro-ablation.)
func BenchmarkAblationResolution(b *testing.B) {
	for _, bits := range []uint{8, 16, 24} {
		b.Run(map[uint]string{8: "8bits", 16: "16bits", 24: "24bits"}[bits], func(b *testing.B) {
			col, _ := benchColumn(bits)
			r := col.Relax(0, benchN/20)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cands := ar.SelectApprox(nil, col, r)
				ar.SelectRefine(par.Bill(1), nil, col, 0, benchN/20, cands)
			}
		})
	}
}

// Ablation: translucent join vs generic hash join on the same
// approximation/refinement alignment task.
func BenchmarkAblationTranslucentVsHash(b *testing.B) {
	col, _ := benchColumn(12)
	cands := ar.SelectApprox(nil, col, col.Relax(0, benchN/2))
	refined, _ := ar.SelectRefine(par.Bill(1), nil, col, 0, benchN/4, cands)
	aVals := make([]int64, len(cands.IDs))
	for i, id := range cands.IDs {
		aVals[i] = int64(id)
	}
	bVals := make([]int64, len(refined.IDs))
	for i, id := range refined.IDs {
		bVals[i] = int64(id)
	}
	b.Run("translucent", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ar.TranslucentJoin(cands.IDs, refined.IDs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hashJoin(aVals, bVals)
		}
	})
}

// hashJoin is the generic equi-join baseline of the translucent-join
// ablation: it returns the matching position pairs (left[i] joins
// right[i]), building on the smaller input and probing with the larger.
// The paper notes (§IV-D) that generic hash joins are hard to approximate
// on massively parallel hardware; the engine never runs one.
func hashJoin(left, right []int64) (lids, rids []bat.OID) {
	build, probe := left, right
	swapped := false
	if len(right) < len(left) {
		build, probe = right, left
		swapped = true
	}
	idx := make(map[int64][]bat.OID, len(build))
	for i, v := range build {
		idx[v] = append(idx[v], bat.OID(i))
	}
	var bids, pids []bat.OID
	for i, v := range probe {
		for _, b := range idx[v] {
			bids = append(bids, b)
			pids = append(pids, bat.OID(i))
		}
	}
	if swapped {
		return pids, bids
	}
	return bids, pids
}

func TestHashJoinMatchesNestedLoop(t *testing.T) {
	f := func(rawL, rawR []uint8) bool {
		left := make([]int64, len(rawL))
		for i, v := range rawL {
			left[i] = int64(v % 16)
		}
		right := make([]int64, len(rawR))
		for i, v := range rawR {
			right[i] = int64(v % 16)
		}
		lids, rids := hashJoin(left, right)
		if len(lids) != len(rids) {
			return false
		}
		// Count matches both ways.
		want := 0
		for _, l := range left {
			for _, r := range right {
				if l == r {
					want++
				}
			}
		}
		if len(lids) != want {
			return false
		}
		for i := range lids {
			if left[lids[i]] != right[rids[i]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Ablation: rule-based filter push-down (§III-A) on a two-filter query
// where one predicate is far more selective.
func BenchmarkAblationFilterPushdown(b *testing.B) {
	sys := device.PaperSystem()
	c := plan.NewCatalog(sys)
	rng := rand.New(rand.NewSource(11))
	tbl := plan.NewTable("fact")
	n := 1 << 19
	for _, col := range []string{"wide", "narrow"} {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(rng.Intn(n))
		}
		if err := tbl.AddColumn(col, bat.NewDense(vals, bat.Width32)); err != nil {
			b.Fatal(err)
		}
	}
	if err := c.AddTable(tbl); err != nil {
		b.Fatal(err)
	}
	for _, col := range []string{"wide", "narrow"} {
		if _, err := c.Decompose("fact", col, 10); err != nil {
			b.Fatal(err)
		}
	}
	q := plan.Query{
		Table: "fact",
		Filters: []plan.Filter{
			{Col: "wide", Lo: 0, Hi: int64(n)},
			{Col: "narrow", Lo: 0, Hi: int64(n / 100)},
		},
		Aggs: []plan.AggSpec{{Name: "n", Func: plan.Count}},
	}
	arSess, _ := benchSessions(c)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := arSess.QueryPlan(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

// End-to-end wall clock of the three reproduced TPC-H queries at small SF.
func BenchmarkEndToEndTPCH(b *testing.B) {
	sys := device.PaperSystem()
	c := plan.NewCatalog(sys)
	d := tpch.Generate(0.005, 42)
	if err := d.Load(c); err != nil {
		b.Fatal(err)
	}
	if err := d.DecomposeAll(c, false); err != nil {
		b.Fatal(err)
	}
	q14, err := tpch.Q14(1995, 9)
	if err != nil {
		b.Fatal(err)
	}
	arSess, clSess := benchSessions(c)
	ctx := context.Background()
	for _, entry := range []struct {
		name string
		q    plan.Query
	}{{"Q1", tpch.Q1(90)}, {"Q6", tpch.Q6(1994, 6, 24)}, {"Q14", q14}} {
		b.Run(entry.name+"/AR", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := arSess.QueryPlan(ctx, entry.q); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(entry.name+"/Classic", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := clSess.QueryPlan(ctx, entry.q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// End-to-end wall clock of the spatial range query.
func BenchmarkEndToEndSpatial(b *testing.B) {
	sys := device.PaperSystem()
	c := plan.NewCatalog(sys)
	d := spatial.Generate(200_000, 7)
	if err := d.Load(c); err != nil {
		b.Fatal(err)
	}
	if err := d.Decompose(c); err != nil {
		b.Fatal(err)
	}
	q := spatial.RangeCountQuery()
	arSess, clSess := benchSessions(c)
	ctx := context.Background()
	b.Run("AR", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := arSess.QueryPlan(ctx, q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Classic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := clSess.QueryPlan(ctx, q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMorselScaling measures the wall-clock effect of morsel-parallel
// execution on a grouped-aggregate scan (select g, count(*), sum(v),
// min(v), max(v) ... group by g over 2M rows): the same classic plan runs
// with threads=1, threads=4 and threads=NumCPU. The simulated meter moves
// with the Threads setting by design (it always billed threads-way
// parallelism); what this benchmark demonstrates is that since the morsel
// executors, *wall-clock* follows it too. CI runs one iteration of each
// sub-benchmark so the threads=1 vs threads=N ratio is recorded on every
// push; on a multi-core machine threads=4 should be >=2x faster than
// threads=1.
func BenchmarkMorselScaling(b *testing.B) {
	sys := device.PaperSystem()
	c := plan.NewCatalog(sys)
	rng := rand.New(rand.NewSource(17))
	tbl := plan.NewTable("fact")
	n := 2 << 20
	g := make([]int64, n)
	v := make([]int64, n)
	for i := range g {
		g[i] = int64(rng.Intn(100))
		v[i] = int64(rng.Intn(1_000_000))
	}
	if err := tbl.AddColumn("g", bat.NewDense(g, bat.Width32)); err != nil {
		b.Fatal(err)
	}
	if err := tbl.AddColumn("v", bat.NewDense(v, bat.Width32)); err != nil {
		b.Fatal(err)
	}
	if err := c.AddTable(tbl); err != nil {
		b.Fatal(err)
	}
	q := plan.Query{
		Table:   "fact",
		Filters: []plan.Filter{{Col: "v", Lo: 0, Hi: 900_000}},
		GroupBy: []string{"g"},
		Aggs: []plan.AggSpec{
			{Name: "n", Func: plan.Count},
			{Name: "s", Func: plan.Sum, Expr: plan.Col("v")},
			{Name: "mn", Func: plan.Min, Expr: plan.Col("v")},
			{Name: "mx", Func: plan.Max, Expr: plan.Col("v")},
		},
	}
	want, err := c.Exec(context.Background(), q, plan.ModeClassic, plan.ExecOpts{Threads: 1})
	if err != nil {
		b.Fatal(err)
	}
	threadSet := []int{1, 4}
	if ncpu := runtime.NumCPU(); ncpu != 4 && ncpu > 1 {
		threadSet = append(threadSet, ncpu)
	}
	for _, threads := range threadSet {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			b.SetBytes(int64(n) * 8)
			for i := 0; i < b.N; i++ {
				res, err := c.Exec(context.Background(), q, plan.ModeClassic, plan.ExecOpts{Threads: threads})
				if err != nil {
					b.Fatal(err)
				}
				if !plan.EqualResults(res.Rows, want.Rows) {
					b.Fatalf("threads=%d changed the result", threads)
				}
			}
		})
	}
}

// BenchmarkIngestWhileQuery drives a concurrent INSERT stream against an
// A&R query stream over the mutable column store: a writer session appends
// batches into the delta segment while the timed loop runs range counts,
// and the background merger compacts deltas past the threshold. The
// reported merge-MB vs redecomp-MB metrics show the write path's
// amortization: an incremental merge ships only the merged rows'
// approximation codes across the bus, a full re-decomposition would ship
// the whole column every time.
func BenchmarkIngestWhileQuery(b *testing.B) {
	sys := device.PaperSystem()
	c := plan.NewCatalog(sys)
	tbl := plan.NewTable("stream")
	n := 200_000
	rng := rand.New(rand.NewSource(11))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(rng.Intn(65536))
	}
	// Pin the domain ends so in-range inserts keep the decomposition
	// parameters stable and merges stay incremental.
	vals[0], vals[1] = 0, 65535
	if err := tbl.AddColumn("v", bat.NewDense(vals, bat.Width32)); err != nil {
		b.Fatal(err)
	}
	if err := c.AddTable(tbl); err != nil {
		b.Fatal(err)
	}
	if _, err := c.Decompose("stream", "v", 10); err != nil {
		b.Fatal(err)
	}

	eng := engine.New(c, engine.Options{MergeThreshold: 8192, MergeInterval: time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng.StartMaintenance(ctx)

	// Writer: one INSERT statement per loop, 64 rows each, through the
	// full SQL front end (write bindings are compiled per execution).
	var sb strings.Builder
	sb.WriteString("insert into stream values ")
	for i := 0; i < 64; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d)", rng.Intn(65536))
	}
	insertStmt := sb.String()
	writer := eng.Session()
	defer writer.Close()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := writer.Query(ctx, insertStmt); err != nil {
				b.Error(err)
				return
			}
		}
	}()

	reader := eng.SessionFor(engine.ModeAR)
	defer reader.Close()
	const q = "select count(*) from stream where v between 100 and 5000"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reader.Query(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	<-done

	st, err := c.Table("stream")
	if err != nil {
		b.Fatal(err)
	}
	stats := st.Stats()
	b.ReportMetric(float64(stats.Inserts)/float64(b.N), "rows-ingested/op")
	b.ReportMetric(float64(stats.MergeShippedBytes)/1e6, "merge-MB")
	b.ReportMetric(float64(stats.MergeFullBytes)/1e6, "redecomp-MB")
	if stats.MergeFullBytes > 0 {
		b.ReportMetric(float64(stats.MergeShippedBytes)/float64(stats.MergeFullBytes), "merge-byte-frac")
	}
}
