package sql

import (
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/plan"
)

// TestPartitionedDDLLifecycle drives the SQL surface of partitioned
// tables: CREATE ... PARTITION BY, INSERT routed through the wrapper,
// bwdecompose fan-out, and scatter-gather SELECTs in both modes, checked
// against an unpartitioned twin loaded with the same rows.
func TestPartitionedDDLLifecycle(t *testing.T) {
	c := plan.NewCatalog(device.PaperSystem())
	res := run(t, c, "create table orders (qty int, price decimal2) partition by hash(qty) partitions 3", false)
	if len(res.Plan) != 1 || !strings.Contains(res.Plan[0], "partition by hash(qty) partitions 3") {
		t.Fatalf("create result %v", res.Plan)
	}
	run(t, c, "create table flat (qty int, price decimal2)", false)

	insert := "insert into %s values (5, 1.50), (10, 2.25), (20, 99.99), (7, 3.00), (10, 0.75)"
	for _, tbl := range []string{"orders", "flat"} {
		run(t, c, strings.Replace(insert, "%s", tbl, 1), false)
		run(t, c, "select bwdecompose(qty, 8), bwdecompose(price, 10) from "+tbl, false)
	}

	queries := []string{
		"select count(*), sum(price) from %s where qty >= 7",
		"select qty, count(*) from %s where price <= 50.00 group by qty order by qty",
		"select min(price), max(price), avg(qty) from %s where qty between 5 and 20",
	}
	for _, qt := range queries {
		for _, classic := range []bool{false, true} {
			part := run(t, c, strings.Replace(qt, "%s", "orders", 1), classic)
			flat := run(t, c, strings.Replace(qt, "%s", "flat", 1), classic)
			if !plan.EqualResults(part.Rows, flat.Rows) {
				t.Fatalf("%s (classic=%v): partitioned %v != flat %v", qt, classic, part.Rows, flat.Rows)
			}
		}
	}

	// DELETE fans out; both tables must drop the same rows.
	for _, tbl := range []string{"orders", "flat"} {
		res := run(t, c, "delete from "+tbl+" where qty = 10", false)
		if len(res.Plan) != 1 || !strings.Contains(res.Plan[0], "deleted 2 rows") {
			t.Fatalf("%s delete result %v", tbl, res.Plan)
		}
	}
	if got := count(t, c, "select count(*) from orders where qty >= 1", false); got != 3 {
		t.Fatalf("count after delete = %d, want 3", got)
	}

	// Merging the wrapper compacts every partition.
	if _, err := c.MergeTable(nil, "orders", false); err != nil {
		t.Fatal(err)
	}
	p, ok := c.Partitioned("orders")
	if !ok {
		t.Fatal("orders is not registered as partitioned")
	}
	for i, pt := range p.Parts {
		if s := pt.Snapshot(); s.DeltaLen() != 0 || s.DeletedCount() != 0 {
			t.Fatalf("partition %d not compacted: delta=%d deleted=%d", i, s.DeltaLen(), s.DeletedCount())
		}
	}
	if got := count(t, c, "select count(*) from orders where qty >= 1", true); got != 3 {
		t.Fatalf("count after merge = %d, want 3", got)
	}
}

// TestPartitionByErrors pins the positioned parse/bind errors of the
// PARTITION BY clause, and the semantic rejections around partitioned
// tables (no dimension-side use).
func TestPartitionByErrors(t *testing.T) {
	c := plan.NewCatalog(device.PaperSystem())
	cases := []struct {
		src  string
		want string
	}{
		{"create table t (a int) partition by foo(a) partitions 2", "unknown partition kind"},
		{"create table t (a int) partition by hash(b) partitions 2", "partition column b is not declared"},
		{"create table t (a int) partition by hash(a) partitions 0", "PARTITIONS takes a positive integer"},
		{"create table t (a int) partition by hash(a) partitions 2.5", "PARTITIONS takes a positive integer"},
		{"create table t (a int) partition by hash(a)", "expected PARTITIONS"},
		{"create table t (a int) partition hash(a) partitions 2", "expected BY"},
	}
	for _, tc := range cases {
		_, err := Compile(c, tc.src)
		if err == nil {
			t.Fatalf("%s: accepted", tc.src)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.src, err, tc.want)
		}
		// Parse errors must point at the offending token.
		if !strings.Contains(err.Error(), "offset") {
			t.Fatalf("%s: error %q carries no position", tc.src, err)
		}
	}

	// Partition counts beyond the shard cap are a bind error (the literal
	// itself is a valid integer, so the parser accepts it).
	if _, err := Compile(c, "create table t (a int) partition by hash(a) partitions 100000"); err == nil {
		t.Fatal("oversized partition count accepted")
	}

	// A partitioned table cannot serve as a join dimension: there is no
	// dense primary key across partitions to index.
	run(t, c, "create table pdim (id int, pay int) partition by hash(id) partitions 2", false)
	run(t, c, "create table fact (fk int, v int)", false)
	run(t, c, "insert into fact values (1, 10), (2, 20)", false)
	run(t, c, "insert into pdim values (1, 100), (2, 200)", false)
	b, err := Compile(c, "select count(*) from fact join pdim on fact.fk = pdim.id where fact.v >= 0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := execBinding(c, b, plan.ModeClassic); err == nil || !strings.Contains(err.Error(), "partitioned") {
		t.Fatalf("join over a partitioned dimension: err %v, want a partitioned-table rejection", err)
	}

	// Duplicate creation through either path is rejected.
	if _, err := Compile(c, "create table pdim (id int)"); err == nil {
		// Creation errors surface at exec time (the binder does not check
		// existence so EXPLAIN works on uncreated names); run it.
		b, _ := Compile(c, "create table pdim (id int)")
		if _, err := execBinding(c, b, plan.ModeAR); err == nil {
			t.Fatal("duplicate create over a partitioned table accepted")
		}
	}
}
