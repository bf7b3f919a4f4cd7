// Package plan implements the query layer of the reproduction: a logical
// query model, the bwd_pipe rewriter that turns classic bulk plans into
// Approximate & Refine plans (§V-B, Fig 7), a rule-based optimizer that
// pushes approximate selections down (§III-A), and two executors — the A&R
// executor spanning the simulated GPU/CPU system and the classic
// bulk-processing executor that serves as the paper's MonetDB baseline.
//
// Storage is the mutable column store of internal/store: every table is an
// immutable bit-sliced base segment plus an append-optimized delta segment
// and a deletion bitmap. Both executors pin a per-table snapshot at query
// start, scan the base segment through their native operator set, scan the
// delta with classic bulk passes, and merge the two honoring the deletion
// bitmap — so readers are snapshot isolated against concurrent DML.
package plan

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/bat"
	"repro/internal/bwd"
	"repro/internal/device"
	"repro/internal/shard"
	"repro/internal/store"
)

// Table is a column-set builder used by the data loaders: columns are
// accumulated (with their fixed-point scales) and AddTable turns the
// builder into a mutable store.Table registered in the catalog. The
// AddColumn order becomes the table's schema order — the implicit column
// order of INSERT INTO ... VALUES.
type Table struct {
	Name  string
	cols  map[string]column
	order []string
	n     int
}

// column pairs the stored BAT with its fixed-point scale (1 for plain
// integers, 100 for decimal(_,2) money, 100000 for the decimal(_,5) GPS
// coordinates). The scale lets the SQL layer align decimal literals with
// the storage encoding.
type column struct {
	b     *bat.BAT
	scale int64
}

// NewTable creates an empty table builder.
func NewTable(name string) *Table {
	return &Table{Name: name, cols: make(map[string]column), n: -1}
}

// AddColumn adds a plain integer column (scale 1); all columns of a table
// must have equal length.
func (t *Table) AddColumn(name string, b *bat.BAT) error {
	return t.AddColumnScaled(name, b, 1)
}

// AddColumnScaled adds a fixed-point column with the given decimal scale.
func (t *Table) AddColumnScaled(name string, b *bat.BAT, scale int64) error {
	if _, dup := t.cols[name]; dup {
		return fmt.Errorf("plan: duplicate column %s.%s", t.Name, name)
	}
	if t.n >= 0 && b.Len() != t.n {
		return fmt.Errorf("plan: column %s.%s has %d rows, table has %d", t.Name, name, b.Len(), t.n)
	}
	if scale < 1 {
		return fmt.Errorf("plan: column %s.%s has invalid scale %d", t.Name, name, scale)
	}
	t.n = b.Len()
	t.cols[name] = column{b: b, scale: scale}
	t.order = append(t.order, name)
	return nil
}

// Len returns the row count.
func (t *Table) Len() int {
	if t.n < 0 {
		return 0
	}
	return t.n
}

// Columns returns the column names in sorted order.
func (t *Table) Columns() []string {
	out := append([]string(nil), t.order...)
	sort.Strings(out)
	return out
}

// Durability is the write-ahead hook a durability subsystem (see
// internal/durable) installs with SetDurability. Every catalog write calls
// the matching Log method, passing the in-memory mutation as the apply
// callback; the implementation logs the operation to stable storage before
// (or around) invoking apply, and serializes per-table writes against
// checkpoints. A nil Durability means the catalog is memory-only and apply
// runs directly.
//
// The interface lives here (not in internal/durable) so the durability
// layer can depend on the catalog without an import cycle.
type Durability interface {
	// LogCreate logs a CREATE TABLE; apply registers the table.
	LogCreate(name string, defs []store.ColumnDef, apply func() error) error
	// LogInsert logs an INSERT of row-major, schema-order values:
	// groups[i] goes to tables[i], all groups as one atomic WAL write;
	// apply(i) appends group i.
	LogInsert(tables []string, groups [][][]int64, apply func(i int) error) error
	// LogDelete logs a DELETE by conjunction of closed ranges.
	LogDelete(table string, preds []store.Range, apply func() error) error
	// LogDecompose logs a bitwise decomposition (col, approx bits).
	LogDecompose(table, col string, bits uint, apply func() error) error
	// LogFKIndex logs an FK index build over table.col.
	LogFKIndex(table, col string, apply func() error) error
	// LogDrop logs a DROP TABLE and reclaims the table's durable state.
	LogDrop(table string, apply func() error) error
	// LogLoad persists a bulk-loaded table wholesale (no per-row logging);
	// apply registers it.
	LogLoad(t *store.Table, apply func() error) error
	// LogCreatePartitioned logs a CREATE TABLE ... PARTITION BY; apply
	// registers the wrapper and its partition tables.
	LogCreatePartitioned(name string, defs []store.ColumnDef, spec shard.Spec, apply func() error) error
}

// Catalog holds the mutable store tables, bound to one simulated device
// system.
//
// A Catalog is safe for concurrent use: the table registry is guarded by
// an RWMutex, and each store.Table publishes immutable snapshots — queries
// (ExecAR/ExecClassic) pin a snapshot at start and may run concurrently
// with each other and with DML (Insert/Delete/Merge/Decompose), which
// swaps fresh versions in without mutating pinned data.
type Catalog struct {
	sys *device.System
	dur Durability

	// prunedParts counts partition legs skipped by range-partition
	// pruning before scattering (see execScatter); exposed through
	// PlannerStats and the engine's ar_partition_pruned_total metric.
	prunedParts atomic.Int64

	mu     sync.RWMutex
	tables map[string]*store.Table
	parted map[string]*shard.Partitioned
}

// PlannerStats is a point-in-time snapshot of optimizer counters.
type PlannerStats struct {
	// PartitionsPruned counts partition legs excluded from scatter-gather
	// executions because the anchor column's filters ruled out their slab.
	PartitionsPruned int64
}

// PlannerStats returns the current optimizer counters.
func (c *Catalog) PlannerStats() PlannerStats {
	return PlannerStats{PartitionsPruned: c.prunedParts.Load()}
}

// NewCatalog creates a catalog bound to the given simulated system.
func NewCatalog(sys *device.System) *Catalog {
	return &Catalog{
		sys:    sys,
		tables: make(map[string]*store.Table),
		parted: make(map[string]*shard.Partitioned),
	}
}

// System returns the catalog's simulated system.
func (c *Catalog) System() *device.System { return c.sys }

// SetDurability installs the write-ahead hook: from now on every catalog
// write flows through d. Install it after recovery has re-applied history
// directly (recovery must not re-log what it replays). A nil d detaches
// durability.
func (c *Catalog) SetDurability(d Durability) {
	c.mu.Lock()
	c.dur = d
	c.mu.Unlock()
}

func (c *Catalog) durability() Durability {
	c.mu.RLock()
	d := c.dur
	c.mu.RUnlock()
	return d
}

// AddTable registers a loaded table builder as a mutable store table.
func (c *Catalog) AddTable(t *Table) error {
	defs := make([]store.ColumnDef, len(t.order))
	cols := make([]*bat.BAT, len(t.order))
	for i, name := range t.order {
		col := t.cols[name]
		defs[i] = store.ColumnDef{Name: name, Scale: col.scale, Width: col.b.Width()}
		cols[i] = col.b
	}
	st, err := store.New(t.Name, defs, cols, c.sys)
	if err != nil {
		return err
	}
	if d := c.durability(); d != nil {
		return d.LogLoad(st, func() error { return c.register(st) })
	}
	return c.register(st)
}

// CreateTable registers a new empty table with the given schema — the
// engine-level CREATE TABLE.
func (c *Catalog) CreateTable(name string, defs []store.ColumnDef) (*store.Table, error) {
	st, err := store.New(name, defs, nil, c.sys)
	if err != nil {
		return nil, err
	}
	if d := c.durability(); d != nil {
		if err := d.LogCreate(name, defs, func() error { return c.register(st) }); err != nil {
			return nil, err
		}
		return st, nil
	}
	if err := c.register(st); err != nil {
		return nil, err
	}
	return st, nil
}

// Register adds an already-built store table to the catalog without
// logging — the durability layer uses it while restoring segments and
// replaying the WAL, when the history is already on disk.
func (c *Catalog) Register(st *store.Table) error { return c.register(st) }

func (c *Catalog) register(st *store.Table) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.tables[st.Name()]; dup {
		return fmt.Errorf("plan: duplicate table %s", st.Name())
	}
	if _, dup := c.parted[st.Name()]; dup {
		return fmt.Errorf("plan: duplicate table %s", st.Name())
	}
	c.tables[st.Name()] = st
	return nil
}

func (c *Catalog) dropTable(name string) error {
	c.mu.Lock()
	t, ok := c.tables[name]
	if ok {
		delete(c.tables, name)
	}
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("plan: unknown table %s", name)
	}
	t.ReleaseDecompositions()
	return nil
}

// DropTable removes a table, releases its device allocations, and — with
// durability attached — logs the drop and reclaims the table's segment
// files. In-flight queries holding a snapshot keep reading their pinned
// version. Dropping a partitioned table drops every partition.
func (c *Catalog) DropTable(name string) error {
	if p, ok := c.Partitioned(name); ok {
		return c.dropPartitioned(p)
	}
	if d := c.durability(); d != nil {
		return d.LogDrop(name, func() error { return c.dropTable(name) })
	}
	return c.dropTable(name)
}

// Table returns a registered table. A partitioned table's wrapper name is
// not a plain table — callers that only need the schema use SchemaTable,
// scans go through the scatter-gather path.
func (c *Catalog) Table(name string) (*store.Table, error) {
	c.mu.RLock()
	t, ok := c.tables[name]
	_, isPart := c.parted[name]
	c.mu.RUnlock()
	if !ok {
		if isPart {
			return nil, fmt.Errorf("plan: table %s is partitioned and cannot be used here", name)
		}
		return nil, fmt.Errorf("plan: unknown table %s", name)
	}
	return t, nil
}

// TableNames returns the registered table names in sorted order.
func (c *Catalog) TableNames() []string {
	c.mu.RLock()
	out := make([]string, 0, len(c.tables))
	for name := range c.tables {
		out = append(out, name)
	}
	c.mu.RUnlock()
	sort.Strings(out)
	return out
}

// TableSchemaEpoch returns the schema identity of a table (see
// store.Table.SchemaEpoch); ok is false when the table does not exist. The
// engine's plan cache records these per binding and invalidates entries
// whose dependencies changed.
func (c *Catalog) TableSchemaEpoch(name string) (uint64, bool) {
	c.mu.RLock()
	t, ok := c.tables[name]
	if !ok {
		if p, pok := c.parted[name]; pok {
			t, ok = p.Schema(), true
		}
	}
	c.mu.RUnlock()
	if !ok {
		return 0, false
	}
	return t.SchemaEpoch(), true
}

// SchemaEpochs snapshots the schema epoch of every registered table. The
// engine reads it BEFORE compiling a statement: schema epochs are globally
// monotonic, so dependencies recorded from a pre-compilation snapshot can
// only be stale-conservative — a table replaced mid-compilation makes the
// cached entry invalid on its first hit instead of silently current.
func (c *Catalog) SchemaEpochs() map[string]uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[string]uint64, len(c.tables)+len(c.parted))
	for name, t := range c.tables {
		out[name] = t.SchemaEpoch()
	}
	for name, p := range c.parted {
		out[name] = p.Schema().SchemaEpoch()
	}
	return out
}

// Decompose bitwise-decomposes table.col with approxBits device-resident
// bits — the engine-level equivalent of the paper's
// `select bwdecompose(col, approxBits) from table` (§V-A). Decomposing an
// already decomposed column replaces the previous decomposition; a table
// with delta rows or deletions is compacted first so the decomposition
// covers every live row.
func (c *Catalog) Decompose(table, col string, approxBits uint) (*bwd.Column, error) {
	return c.DecomposeMetered(nil, table, col, approxBits)
}

// DecomposeMetered is Decompose charging the implicit pre-merge compaction
// (delta rows folded in, deletions dropped) to m — the SQL bwdecompose
// path uses it so the bus bytes a compaction ships appear in the engine
// totals, not just in the store counters.
func (c *Catalog) DecomposeMetered(m *device.Meter, table, col string, approxBits uint) (*bwd.Column, error) {
	if p, ok := c.Partitioned(table); ok {
		return c.decomposePartitioned(m, p, col, approxBits)
	}
	t, err := c.Table(table)
	if err != nil {
		return nil, err
	}
	if d := c.durability(); d != nil {
		var out *bwd.Column
		err := d.LogDecompose(table, col, approxBits, func() error {
			var aerr error
			out, aerr = t.Decompose(m, col, approxBits)
			return aerr
		})
		return out, err
	}
	return t.Decompose(m, col, approxBits)
}

// Decomposition returns the current decomposition of table.col, or an
// error if the column was never decomposed (A&R plans require explicit
// decomposition, like an index).
func (c *Catalog) Decomposition(table, col string) (*bwd.Column, error) {
	if p, ok := c.Partitioned(table); ok {
		table = p.Schema().Name()
	}
	t, err := c.Table(table)
	if err != nil {
		return nil, err
	}
	d := t.Snapshot().Dec(col)
	if d == nil {
		return nil, fmt.Errorf("plan: column %s.%s is not bitwise decomposed; call Decompose first", table, col)
	}
	return d, nil
}

// ReleaseDecompositions frees all device allocations held by the catalog.
func (c *Catalog) ReleaseDecompositions() {
	c.mu.RLock()
	tables := make([]*store.Table, 0, len(c.tables))
	for _, t := range c.tables {
		tables = append(tables, t)
	}
	c.mu.RUnlock()
	for _, t := range tables {
		t.ReleaseDecompositions()
	}
}

// BuildFKIndex pre-builds the foreign-key (primary-key) index over
// table.col on the CPU, as the paper does for joins (§IV-D). The index is
// segment-bound: merges rebuild it over the compacted key column.
func (c *Catalog) BuildFKIndex(table, col string) error {
	if _, ok := c.Partitioned(table); ok {
		return fmt.Errorf("plan: cannot build an FK index on partitioned table %s (partitioned tables are fact tables, not join dimensions)", table)
	}
	t, err := c.Table(table)
	if err != nil {
		return err
	}
	build := func() error {
		if err := t.BuildFKIndex(col); err != nil {
			return fmt.Errorf("plan: %s.%s is not a dense unique key", table, col)
		}
		return nil
	}
	if d := c.durability(); d != nil {
		return d.LogFKIndex(table, col, build)
	}
	return build()
}

// InsertRows appends rows (schema order, scaled values) to table's delta
// segment, charging the host-side append to m (which may be nil).
func (c *Catalog) InsertRows(m *device.Meter, table string, rows [][]int64) (int, error) {
	if p, ok := c.Partitioned(table); ok {
		return c.insertPartitioned(m, p, rows)
	}
	return c.insertGroups(m, []string{table}, [][][]int64{rows})
}

// insertGroups appends groups[i] to table names[i]. With durability
// attached, all groups are logged as one WAL write before any is applied.
func (c *Catalog) insertGroups(m *device.Meter, names []string, groups [][][]int64) (int, error) {
	tables := make([]*store.Table, len(names))
	for i, name := range names {
		t, err := c.Table(name)
		if err != nil {
			return 0, err
		}
		tables[i] = t
	}
	total := 0
	apply := func(i int) error {
		n, err := tables[i].Insert(m, groups[i])
		total += n
		return err
	}
	if d := c.durability(); d != nil {
		err := d.LogInsert(names, groups, apply)
		return total, err
	}
	for i := range tables {
		if err := apply(i); err != nil {
			return total, err
		}
	}
	return total, nil
}

// DeleteRows marks every live row of table satisfying all filters deleted
// and returns the count.
func (c *Catalog) DeleteRows(m *device.Meter, table string, filters []Filter) (int64, error) {
	if p, ok := c.Partitioned(table); ok {
		return c.deletePartitioned(m, p, filters)
	}
	t, err := c.Table(table)
	if err != nil {
		return 0, err
	}
	preds := make([]store.Range, len(filters))
	for i, f := range filters {
		preds[i] = store.Range{Col: f.Col, Lo: f.Lo, Hi: f.Hi}
	}
	if d := c.durability(); d != nil {
		var n int64
		err := d.LogDelete(table, preds, func() error {
			var aerr error
			n, aerr = t.DeleteWhere(m, preds)
			return aerr
		})
		return n, err
	}
	return t.DeleteWhere(m, preds)
}

// MergeTable compacts table's delta segment and deletions into a fresh
// base segment, charging the incremental re-decomposition to m. auto marks
// background-merger invocations for stats attribution.
func (c *Catalog) MergeTable(m *device.Meter, table string, auto bool) (store.MergeStats, error) {
	if p, ok := c.Partitioned(table); ok {
		return c.mergePartitioned(m, p, auto)
	}
	t, err := c.Table(table)
	if err != nil {
		return store.MergeStats{}, err
	}
	return t.Merge(m, auto)
}

// StoreStats aggregates the store counters over every registered table.
type StoreStats struct {
	Tables            int
	Segments          int
	DeltaRows         int
	DeletedRows       int
	Merges            int64
	AutoMerges        int64
	MergeRows         int64
	MergeShippedBytes int64
	MergeFullBytes    int64
}

// StoreStats returns the aggregated mutable-store counters (the \stats
// surface).
func (c *Catalog) StoreStats() StoreStats {
	c.mu.RLock()
	tables := make([]*store.Table, 0, len(c.tables))
	for _, t := range c.tables {
		tables = append(tables, t)
	}
	c.mu.RUnlock()
	var out StoreStats
	out.Tables = len(tables)
	for _, t := range tables {
		st := t.Stats()
		out.Segments += st.Segments
		out.DeltaRows += st.DeltaRows
		out.DeletedRows += st.DeletedRows
		out.Merges += st.Merges
		out.AutoMerges += st.AutoMerges
		out.MergeRows += st.MergeRows
		out.MergeShippedBytes += st.MergeShippedBytes
		out.MergeFullBytes += st.MergeFullBytes
	}
	return out
}

func (s StoreStats) String() string {
	return fmt.Sprintf("store: %d tables, %d segments, %d delta rows, %d deleted, %d merges (%d auto, %d rows), merge shipped %d B (full re-decomposition %d B)",
		s.Tables, s.Segments, s.DeltaRows, s.DeletedRows, s.Merges, s.AutoMerges, s.MergeRows, s.MergeShippedBytes, s.MergeFullBytes)
}
