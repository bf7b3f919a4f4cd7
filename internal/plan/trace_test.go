package plan

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// traceShape renders the deterministic part of a trace — stage, operator
// text, cardinalities, estimates and the simulated meter split per event —
// excluding wall-clock time. Executions that must agree modulo real time
// compare these strings byte-for-byte.
func traceShape(r *Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "mode=%s candidates=%d refined=%d rows=%d\n",
		r.Trace.Mode, r.Trace.Candidates, r.Trace.Refined, r.Trace.Rows)
	for _, ev := range r.Trace.Events {
		fmt.Fprintf(&sb, "[%s] %s rows=%d est=%d gpu=%v cpu=%v pci=%v\n",
			ev.Stage, ev.Op, ev.Rows, ev.Est, ev.GPU, ev.CPU, ev.PCI)
	}
	return sb.String()
}

// TestTraceDoesNotPerturbExecution is the telemetry ground rule: enabling
// ExecOpts.Trace must return bit-identical results AND meters to an
// untraced run — tracing reads the meter, it never charges it.
func TestTraceDoesNotPerturbExecution(t *testing.T) {
	c := propCatalog(t, 6000, 3)
	rng := rand.New(rand.NewSource(99))
	// A delta segment and deletions so the delta/maskdeleted stages trace.
	rows := make([][]int64, 800)
	for i := range rows {
		rows[i] = []int64{int64(rng.Intn(4096)), int64(rng.Intn(4096)), int64(rng.Intn(5))}
	}
	if _, err := c.InsertRows(nil, "fact", rows); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DeleteRows(nil, "fact", []Filter{{Col: "v", Lo: 100, Hi: 400}}); err != nil {
		t.Fatal(err)
	}
	for qi, q := range propQueries(rng) {
		for _, exec := range []struct {
			name string
			mode Mode
		}{{"ar", ModeAR}, {"classic", ModeClassic}} {
			plain, err := c.Exec(context.Background(), q, exec.mode, ExecOpts{Threads: 1})
			if err != nil {
				t.Fatalf("query %d %s: %v", qi, exec.name, err)
			}
			if plain.Trace != nil {
				t.Fatalf("query %d %s: untraced run carries a trace", qi, exec.name)
			}
			traced, err := c.Exec(context.Background(), q, exec.mode, ExecOpts{Threads: 1, Trace: true})
			if err != nil {
				t.Fatalf("query %d %s traced: %v", qi, exec.name, err)
			}
			if !EqualResults(plain.Rows, traced.Rows) {
				t.Errorf("query %d %s: traced rows %v != untraced %v", qi, exec.name, traced.Rows, plain.Rows)
			}
			if *plain.Meter != *traced.Meter {
				t.Errorf("query %d %s: tracing perturbed the meter: %v != %v",
					qi, exec.name, traced.Meter, plain.Meter)
			}
			if traced.Trace == nil || len(traced.Trace.Events) == 0 {
				t.Fatalf("query %d %s: traced run has no events", qi, exec.name)
			}
			if traced.Trace.Mode != exec.name {
				t.Errorf("query %d: trace mode %q, want %q", qi, traced.Trace.Mode, exec.name)
			}
			// The trace shares the plan listing's operator text line-for-line.
			for i, ev := range traced.Trace.Events {
				if !strings.Contains(strings.Join(traced.Plan, "\n"), ev.Op) {
					t.Errorf("query %d %s event %d: op %q not in plan listing", qi, exec.name, i, ev.Op)
				}
			}
		}
	}
}

// BenchmarkTraceOverhead measures the cost of enabling per-operator
// tracing on the A&R pipeline — the acceptance budget is <=5% over an
// untraced run (tracing is a handful of clock reads and meter snapshots
// per operator, not per tuple).
func BenchmarkTraceOverhead(b *testing.B) {
	c := propCatalog(b, 60000, 3)
	q := Query{
		Table:   "fact",
		Filters: []Filter{{Col: "v", Lo: 100, Hi: 2000}, {Col: "w", Lo: 0, Hi: 3000}},
		GroupBy: []string{"g"},
		Aggs:    []AggSpec{{Name: "n", Func: Count}, {Name: "s", Func: Sum, Expr: Col("w")}},
	}
	for _, traced := range []bool{false, true} {
		name := "untraced"
		if traced {
			name = "traced"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.Exec(context.Background(), q, ModeAR, ExecOpts{Threads: 1, Trace: traced}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestTraceStableAcrossWorkers pins the actuals: the traced cardinalities,
// estimates and per-stage simulated meter splits must be byte-identical no
// matter the worker count or morsel size — parallelism is an execution
// detail, not an observable.
func TestTraceStableAcrossWorkers(t *testing.T) {
	c := propCatalog(t, 6000, 5)
	rng := rand.New(rand.NewSource(17))
	for qi, q := range propQueries(rng) {
		serialAR, err := c.Exec(context.Background(), q, ModeAR, ExecOpts{Threads: 1, Workers: 1, Trace: true})
		if err != nil {
			t.Fatalf("query %d serial: %v", qi, err)
		}
		wantAR := traceShape(serialAR)
		serialCl, err := c.Exec(context.Background(), q, ModeClassic, ExecOpts{Threads: 1, Workers: 1, Trace: true})
		if err != nil {
			t.Fatalf("query %d serial classic: %v", qi, err)
		}
		wantCl := traceShape(serialCl)
		for _, workers := range []int{2, 5, 8} {
			opts := ExecOpts{Threads: 1, Workers: workers, Morsel: 256, Trace: true}
			ar, err := c.Exec(context.Background(), q, ModeAR, opts)
			if err != nil {
				t.Fatalf("query %d workers=%d: %v", qi, workers, err)
			}
			if got := traceShape(ar); got != wantAR {
				t.Errorf("query %d workers=%d: A&R trace diverged\n--- serial\n%s--- parallel\n%s",
					qi, workers, wantAR, got)
			}
			cl, err := c.Exec(context.Background(), q, ModeClassic, opts)
			if err != nil {
				t.Fatalf("query %d workers=%d classic: %v", qi, workers, err)
			}
			if got := traceShape(cl); got != wantCl {
				t.Errorf("query %d workers=%d: classic trace diverged\n--- serial\n%s--- parallel\n%s",
					qi, workers, wantCl, got)
			}
		}
	}
}
