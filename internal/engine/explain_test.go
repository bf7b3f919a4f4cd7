package engine

import (
	"context"
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/device"
	"repro/internal/plan"
	"repro/internal/store"
)

// starEngineCatalog builds a two-dimension star schema for the explain
// and multi-join cache tests.
func starEngineCatalog(t *testing.T) *plan.Catalog {
	t.Helper()
	c := plan.NewCatalog(device.PaperSystem())
	addDim := func(name, attr string, dimN int) {
		d := plan.NewTable(name)
		pk := make([]int64, dimN)
		av := make([]int64, dimN)
		for i := range pk {
			pk[i] = int64(i)
			av[i] = int64(i % 10)
		}
		if err := d.AddColumn("id", bat.NewDense(pk, bat.Width32)); err != nil {
			t.Fatal(err)
		}
		if err := d.AddColumn(attr, bat.NewDense(av, bat.Width32)); err != nil {
			t.Fatal(err)
		}
		if err := c.AddTable(d); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Decompose(name, attr, 4); err != nil {
			t.Fatal(err)
		}
		if err := c.BuildFKIndex(name, "id"); err != nil {
			t.Fatal(err)
		}
	}
	addDim("d1", "a", 20)
	addDim("d2", "b", 10)
	fact := plan.NewTable("f")
	n := 2000
	for _, col := range []string{"v", "fk1", "fk2"} {
		vals := make([]int64, n)
		for i := range vals {
			switch col {
			case "fk1":
				vals[i] = int64(i % 20)
			case "fk2":
				vals[i] = int64(i % 10)
			default:
				vals[i] = int64(i % 1000)
			}
		}
		if err := fact.AddColumn(col, bat.NewDense(vals, bat.Width32)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AddTable(fact); err != nil {
		t.Fatal(err)
	}
	for col, bits := range map[string]uint{"v": 8, "fk1": 32, "fk2": 32} {
		if _, err := c.Decompose("f", col, bits); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

const starQuery = `select count(*) as n from f join d1 on f.fk1 = d1.id join d2 on f.fk2 = d2.id where v < 500 and d1.a < 5`

// TestExplainMeta checks the \explain meta command renders the assembled
// pipeline — scan strategy, selectivity-ordered filters, join chain,
// delta marker — without executing the statement, and follows the
// session's executor mode.
func TestExplainMeta(t *testing.T) {
	eng := New(starEngineCatalog(t), Options{})
	sess := eng.Session()
	defer sess.Close()
	ctx := context.Background()

	lines, quit, handled, err := sess.Meta(ctx, `\explain `+starQuery)
	if err != nil || quit || !handled {
		t.Fatalf("Meta explain: lines=%v quit=%v handled=%v err=%v", lines, quit, handled, err)
	}
	text := strings.Join(lines, "\n")
	for _, want := range []string{
		"mode=ar", "a&r bit-sliced base of f", "est sel",
		"join 1/2: f.fk1 -> d1.id", "join 2/2: f.fk2 -> d2.id",
		"filter d1.a", "delta: none",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("\\explain output missing %q:\n%s", want, text)
		}
	}
	// Forced classic mode explains the classic scan strategy.
	sess.SetMode(ModeClassic)
	lines, _, _, err = sess.Meta(ctx, `\explain `+starQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(lines, "\n"), "classic row-major base") {
		t.Errorf("classic \\explain missing scan strategy:\n%s", strings.Join(lines, "\n"))
	}
	// Write statements have no pipeline.
	if _, _, _, err := sess.Meta(ctx, `\explain insert into f values (1, 2, 3)`); err == nil {
		t.Error("\\explain of a write statement did not fail")
	}
	// The engine-level programmatic entry agrees with the meta surface.
	b, err := eng.compile(starQuery)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := eng.DescribePlan(b.Query, ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(direct, "\n"), "mode=ar") {
		t.Errorf("DescribePlan(auto) did not pick the A&R strategy:\n%s", strings.Join(direct, "\n"))
	}
}

// TestPlanCacheMultiJoinDeps checks that a cached multi-join binding
// records every joined dimension as a dependency: dropping and
// re-creating the second dimension must invalidate the entry instead of
// serving a stale binding.
func TestPlanCacheMultiJoinDeps(t *testing.T) {
	cat := starEngineCatalog(t)
	eng := New(cat, Options{})
	ctx := context.Background()

	if _, err := eng.Query(ctx, starQuery); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Query(ctx, starQuery); err != nil {
		t.Fatal(err)
	}
	if st := eng.Cache().Stats(); st.Hits == 0 {
		t.Fatalf("expected a cache hit before the schema change, got %+v", st)
	}

	// Drop and re-create the second dimension with a different schema.
	if err := cat.DropTable("d2"); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateTable("d2", []store.ColumnDef{
		{Name: "id", Scale: 1, Width: bat.Width32},
		{Name: "b", Scale: 1, Width: bat.Width32},
	}); err != nil {
		t.Fatal(err)
	}
	inval := eng.Cache().Stats().Invalidations
	// The stale entry must not serve: the re-created d2 is empty, so the
	// join now fails validation — but through a fresh compile, not the
	// cached binding.
	if _, err := eng.Query(ctx, starQuery); err == nil {
		t.Fatal("query against re-created empty dimension should fail validation")
	}
	if got := eng.Cache().Stats().Invalidations; got <= inval {
		t.Fatalf("second-dimension schema change did not invalidate the cached plan (invalidations %d -> %d)", inval, got)
	}
}

// TestExplainPartitionedEmptyLegs checks \explain and \explain analyze on a
// range-partitioned table whose data sits in only two of its four
// partitions: the empty legs cannot run A&R (nothing to decompose), yet the
// query runs, so its plan must render too — under a forced \mode ar and
// under auto — and every leg's rendered scan mode must be the mode its
// scatter leg actually ran with.
func TestExplainPartitionedEmptyLegs(t *testing.T) {
	eng := New(plan.NewCatalog(device.PaperSystem()), Options{})
	sess := eng.Session()
	defer sess.Close()
	ctx := context.Background()
	// Four range slabs split the int64 domain: p2 holds [0, 2^62), p3
	// holds [2^62, MaxInt64]; p0 and p1 stay empty.
	var vals []string
	for i := 0; i < 40; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d)", i, i), fmt.Sprintf("(%d, %d)", int64(1)<<62+int64(i), i))
	}
	for _, stmt := range []string{
		"create table ps (k int, v int) partition by range(k) partitions 4",
		"insert into ps values " + strings.Join(vals, ", "),
		"select bwdecompose(k, 8), bwdecompose(v, 8) from ps",
	} {
		if _, err := sess.Query(ctx, stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	const q = "select count(*) from ps where v <= 20"
	legMode := regexp.MustCompile(`partition (\d+): mode=(\w+)`)
	ranMode := regexp.MustCompile(`scatter\(ps\.p(\d+), mode=(\w+)\)`)
	modes := func(re *regexp.Regexp, lines []string) map[string]string {
		out := map[string]string{}
		for _, l := range lines {
			if m := re.FindStringSubmatch(l); m != nil {
				out[m[1]] = m[2]
			}
		}
		return out
	}
	for _, mode := range []string{"ar", "auto"} {
		if _, _, _, err := sess.Meta(ctx, `\mode `+mode); err != nil {
			t.Fatal(err)
		}
		res, err := sess.Query(ctx, q)
		if err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
		if got := res.Rows[0].Vals[0]; got != 42 {
			t.Fatalf("mode %s: count %d, want 42", mode, got)
		}
		described, _, _, err := sess.Meta(ctx, `\explain `+q)
		if err != nil {
			t.Fatalf("mode %s: \\explain: %v", mode, err)
		}
		analyzed, _, _, err := sess.Meta(ctx, `\explain analyze `+q)
		if err != nil {
			t.Fatalf("mode %s: \\explain analyze: %v", mode, err)
		}
		ran := modes(ranMode, analyzed)
		if len(ran) != 4 {
			t.Fatalf("mode %s: trace shows %d scatter legs, want 4:\n%s", mode, len(ran), strings.Join(analyzed, "\n"))
		}
		for _, lines := range [][]string{described, analyzed} {
			if got := modes(legMode, lines); !reflect.DeepEqual(got, ran) {
				t.Errorf("mode %s: described leg modes %v, ran %v:\n%s", mode, got, ran, strings.Join(lines, "\n"))
			}
		}
	}
}
