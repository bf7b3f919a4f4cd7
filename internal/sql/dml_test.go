package sql

import (
	"context"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/plan"
)

// execBinding executes a compiled binding the way the engine does: writes
// through ExecWrite, queries through the catalog's Prepare+Run under mode.
func execBinding(c *plan.Catalog, b *Binding, mode plan.Mode) (*plan.Result, error) {
	if b.IsWrite() {
		return ExecWrite(context.Background(), c, b)
	}
	return c.Exec(context.Background(), b.Query, mode, plan.ExecOpts{})
}

// runSQL compiles and executes src under the A&R executor.
func runSQL(c *plan.Catalog, src string) (*plan.Result, error) {
	b, err := Compile(c, src)
	if err != nil {
		return nil, err
	}
	return execBinding(c, b, plan.ModeAR)
}

// run executes src through the full front end under the given executor.
func run(t *testing.T, c *plan.Catalog, src string, classic bool) *plan.Result {
	t.Helper()
	b, err := Compile(c, src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	mode := plan.ModeAR
	if classic {
		mode = plan.ModeClassic
	}
	res, err := execBinding(c, b, mode)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return res
}

func count(t *testing.T, c *plan.Catalog, src string, classic bool) int64 {
	t.Helper()
	res := run(t, c, src, classic)
	if len(res.Rows) != 1 || len(res.Rows[0].Vals) != 1 {
		t.Fatalf("%s: unexpected shape %v", src, res.Rows)
	}
	return res.Rows[0].Vals[0]
}

// TestDMLLifecycle drives the acceptance path: CREATE, INSERT, decompose,
// more inserts, DELETE, SELECT in both modes with and without a merge.
func TestDMLLifecycle(t *testing.T) {
	c := plan.NewCatalog(device.PaperSystem())
	run(t, c, "create table orders (qty int, price decimal2)", false)

	// Rows land in the delta segment of the empty table.
	run(t, c, "insert into orders values (5, 1.50), (10, 2.25), (20, 99.99)", false)
	if got := count(t, c, "select count(*) from orders where qty >= 5", true); got != 3 {
		t.Fatalf("classic count after insert = %d, want 3", got)
	}

	// Decompose compacts the delta into a base segment first.
	run(t, c, "select bwdecompose(qty, 8), bwdecompose(price, 10) from orders", false)
	if got := count(t, c, "select count(*) from orders where qty >= 5", false); got != 3 {
		t.Fatalf("A&R count after decompose = %d, want 3", got)
	}

	// Fresh inserts are queryable in both modes without re-decomposition.
	run(t, c, "insert into orders (price, qty) values (3.00, 7)", false)
	for _, classic := range []bool{false, true} {
		if got := count(t, c, "select count(*) from orders where qty >= 5", classic); got != 4 {
			t.Fatalf("count (classic=%v) after delta insert = %d, want 4", classic, got)
		}
		if got := count(t, c, "select sum(qty) from orders where price <= 3.00", classic); got != 22 {
			t.Fatalf("sum (classic=%v) = %d, want 22 (5+10+7)", classic, got)
		}
	}

	// DELETE hits base and delta rows alike.
	res := run(t, c, "delete from orders where qty between 7 and 10", false)
	if len(res.Plan) != 1 || !strings.Contains(res.Plan[0], "deleted 2 rows") {
		t.Fatalf("delete result %v", res.Plan)
	}
	for _, classic := range []bool{false, true} {
		if got := count(t, c, "select count(*) from orders where qty >= 1", classic); got != 2 {
			t.Fatalf("count (classic=%v) after delete = %d, want 2", classic, got)
		}
	}

	// An explicit merge compacts everything; results are unchanged.
	if _, err := c.MergeTable(nil, "orders", false); err != nil {
		t.Fatal(err)
	}
	tbl, _ := c.Table("orders")
	if s := tbl.Snapshot(); s.DeltaLen() != 0 || s.DeletedCount() != 0 || s.BaseLen() != 2 {
		t.Fatalf("post-merge segment state: base=%d delta=%d deleted=%d", s.BaseLen(), s.DeltaLen(), s.DeletedCount())
	}
	for _, classic := range []bool{false, true} {
		if got := count(t, c, "select count(*) from orders where qty >= 1", classic); got != 2 {
			t.Fatalf("count (classic=%v) after merge = %d, want 2", classic, got)
		}
		if got := count(t, c, "select sum(price) from orders where qty >= 1", classic); got != 10149 {
			t.Fatalf("sum(price) (classic=%v) after merge = %d, want 10149", classic, got)
		}
	}
}

func TestInsertScaleAlignment(t *testing.T) {
	c := plan.NewCatalog(device.PaperSystem())
	run(t, c, "create table p (v decimal2)", false)
	run(t, c, "insert into p values (1.5)", false) // 1.5 -> 150
	tbl, _ := c.Table("p")
	if got := tbl.Snapshot().DeltaValue(0, 0); got != 150 {
		t.Fatalf("scaled insert value = %d, want 150", got)
	}
	if _, err := Compile(c, "insert into p values (1.555)"); err == nil {
		t.Fatal("over-precise literal accepted")
	}
}

func TestInsertNegativeValues(t *testing.T) {
	c := plan.NewCatalog(device.PaperSystem())
	run(t, c, "create table p (v int)", false)
	run(t, c, "insert into p values (-5), (3)", false)
	if got := count(t, c, "select count(*) from p where v <= -1", true); got != 1 {
		t.Fatalf("negative insert not found: count = %d", got)
	}
}

func TestDMLBindErrors(t *testing.T) {
	c := plan.NewCatalog(device.PaperSystem())
	run(t, c, "create table p (a int, b int)", false)
	for _, src := range []string{
		"insert into nope values (1)",
		"insert into p values (1)",           // arity
		"insert into p (a) values (1)",       // missing column
		"insert into p (a, a) values (1, 2)", // duplicate column
		"delete from nope",
		"delete from p where other.x = 1",     // foreign qualifier
		"create table q (a blob)",             // unknown type
		"create table p (a int)",              // duplicate at exec time
		"explain insert into p values (1, 2)", // EXPLAIN is select-only
		"insert into p values (1, 2) garbage", // trailing input
	} {
		b, err := Compile(c, src)
		if err == nil {
			if _, err = execBinding(c, b, plan.ModeAR); err == nil {
				t.Errorf("%s: accepted", src)
			}
		}
	}
}

func TestDeleteWithoutWhereEmptiesTable(t *testing.T) {
	c := plan.NewCatalog(device.PaperSystem())
	run(t, c, "create table p (v int)", false)
	run(t, c, "insert into p values (1), (2), (3)", false)
	res := run(t, c, "delete from p", false)
	if !strings.Contains(res.Plan[0], "deleted 3 rows") {
		t.Fatalf("delete result %v", res.Plan)
	}
	if got := count(t, c, "select count(*) from p where v >= 0", true); got != 0 {
		t.Fatalf("count after delete-all = %d, want 0", got)
	}
}

func TestNormalizeDML(t *testing.T) {
	src := "INSERT  INTO  p VALUES ( 1 ,  2.5 )"
	want := "insert into p values ( 1 , 2.5 )"
	if got := Normalize(src); got != want {
		t.Fatalf("Normalize(%q) = %q, want %q", src, got, want)
	}
}
