package plan

import (
	"fmt"
	"sort"

	"repro/internal/bwd"
	"repro/internal/device"
	"repro/internal/shard"
	"repro/internal/store"
)

// Partitioned-table catalog surface. A partitioned table is a shard.Spec
// plus N ordinary store.Tables named <table>.p<i>, all registered in the
// regular table map — so merges, checkpoints, segment files and per-table
// metrics see N independent tables and need no partition awareness. The
// wrapper itself lives in a separate registry and owns routing: inserts
// split by the spec, deletes/decompose/merge fan out to every partition,
// and scans scatter-gather (see exec_scatter.go).

// CreatePartitionedTable registers a new empty partitioned table: the
// engine-level CREATE TABLE ... PARTITION BY. With durability attached the
// create is one WAL record; replay re-creates the wrapper and adopts any
// partitions already restored from their segment files.
func (c *Catalog) CreatePartitionedTable(name string, defs []store.ColumnDef, spec shard.Spec) (*shard.Partitioned, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	parts := make([]*store.Table, spec.N)
	for i := range parts {
		st, err := store.New(shard.PartName(name, i), defs, nil, c.sys)
		if err != nil {
			return nil, err
		}
		parts[i] = st
	}
	p, err := shard.NewPartitioned(name, spec, parts)
	if err != nil {
		return nil, err
	}
	if d := c.durability(); d != nil {
		if err := d.LogCreatePartitioned(name, defs, spec, func() error { return c.registerPartitioned(p) }); err != nil {
			return nil, err
		}
		return p, nil
	}
	if err := c.registerPartitioned(p); err != nil {
		return nil, err
	}
	return p, nil
}

// registerPartitioned atomically registers the wrapper and all its
// partition tables, rejecting any name collision.
func (c *Catalog) registerPartitioned(p *shard.Partitioned) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.parted[p.Name]; dup {
		return fmt.Errorf("plan: duplicate table %s", p.Name)
	}
	if _, dup := c.tables[p.Name]; dup {
		return fmt.Errorf("plan: duplicate table %s", p.Name)
	}
	for _, t := range p.Parts {
		if _, dup := c.tables[t.Name()]; dup {
			return fmt.Errorf("plan: duplicate table %s", t.Name())
		}
	}
	for _, t := range p.Parts {
		c.tables[t.Name()] = t
	}
	c.parted[p.Name] = p
	return nil
}

// AdoptPartitioned rebuilds a partitioned table's wrapper during recovery:
// partition tables already restored from segment files are adopted as-is,
// missing ones are created empty (their history replays from the WAL).
// It returns the indices of the partitions it had to create, so the
// durability layer can seed their replay horizons.
func (c *Catalog) AdoptPartitioned(name string, defs []store.ColumnDef, spec shard.Spec) (*shard.Partitioned, []int, error) {
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.parted[name]; dup {
		return nil, nil, fmt.Errorf("plan: duplicate table %s", name)
	}
	if _, dup := c.tables[name]; dup {
		return nil, nil, fmt.Errorf("plan: duplicate table %s", name)
	}
	parts := make([]*store.Table, spec.N)
	var fresh []int
	for i := range parts {
		pn := shard.PartName(name, i)
		if t, ok := c.tables[pn]; ok {
			parts[i] = t
			continue
		}
		t, err := store.New(pn, defs, nil, c.sys)
		if err != nil {
			return nil, nil, err
		}
		parts[i] = t
		fresh = append(fresh, i)
	}
	p, err := shard.NewPartitioned(name, spec, parts)
	if err != nil {
		return nil, nil, err
	}
	for _, i := range fresh {
		c.tables[parts[i].Name()] = parts[i]
	}
	c.parted[name] = p
	return p, fresh, nil
}

// Partitioned returns the wrapper of a partitioned table, if name is one.
func (c *Catalog) Partitioned(name string) (*shard.Partitioned, bool) {
	c.mu.RLock()
	p, ok := c.parted[name]
	c.mu.RUnlock()
	return p, ok
}

// PartitionedNames returns the partitioned table names in sorted order.
func (c *Catalog) PartitionedNames() []string {
	c.mu.RLock()
	out := make([]string, 0, len(c.parted))
	for name := range c.parted {
		out = append(out, name)
	}
	c.mu.RUnlock()
	sort.Strings(out)
	return out
}

// SchemaTable resolves a name to the table that carries its schema: the
// table itself, or partition 0 for a partitioned table (all partitions
// share one schema). The SQL binder uses it so INSERT/SELECT/DELETE bind
// against wrapper names.
func (c *Catalog) SchemaTable(name string) (*store.Table, error) {
	c.mu.RLock()
	t, ok := c.tables[name]
	if !ok {
		if p, pok := c.parted[name]; pok {
			t, ok = p.Schema(), true
		}
	}
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("plan: unknown table %s", name)
	}
	return t, nil
}

// insertPartitioned routes rows to their partitions and appends each
// non-empty group. With durability attached every group is its own WAL
// record under the partition table's name, so each partition's checkpoint
// horizon covers exactly its own rows and replay re-applies them to the
// right partition directly; the records of one statement reach the WAL in
// one write, so a killed process never persists part of a statement.
func (c *Catalog) insertPartitioned(m *device.Meter, p *shard.Partitioned, rows [][]int64) (int, error) {
	var names []string
	var groups [][][]int64
	for i, group := range p.Split(rows) {
		if len(group) > 0 {
			names = append(names, shard.PartName(p.Name, i))
			groups = append(groups, group)
		}
	}
	if len(names) == 0 {
		return 0, nil
	}
	return c.insertGroups(m, names, groups)
}

// deletePartitioned fans a delete out to every partition.
func (c *Catalog) deletePartitioned(m *device.Meter, p *shard.Partitioned, filters []Filter) (int64, error) {
	var total int64
	for i := range p.Parts {
		n, err := c.DeleteRows(m, shard.PartName(p.Name, i), filters)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// decomposePartitioned fans a bitwise decomposition out to every non-empty
// partition; the returned column is the first decomposed one. Empty
// partitions are skipped — bwd rejects empty columns, and routing skew
// (e.g. range partitioning a narrow domain) legitimately leaves partitions
// empty — so their scans fall back to classic until rows arrive and a
// re-decompose runs. An entirely empty table errors like a plain one.
func (c *Catalog) decomposePartitioned(m *device.Meter, p *shard.Partitioned, col string, approxBits uint) (*bwd.Column, error) {
	var out *bwd.Column
	for i := range p.Parts {
		if p.Parts[i].Snapshot().Len() == 0 {
			continue
		}
		d, err := c.DecomposeMetered(m, shard.PartName(p.Name, i), col, approxBits)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = d
		}
	}
	if out == nil {
		return nil, fmt.Errorf("store: bwdecompose(%s.%s, %d): bwd: cannot decompose empty column", p.Name, col, approxBits)
	}
	return out, nil
}

// mergePartitioned compacts every partition, aggregating the stats.
func (c *Catalog) mergePartitioned(m *device.Meter, p *shard.Partitioned, auto bool) (store.MergeStats, error) {
	var out store.MergeStats
	for i := range p.Parts {
		st, err := c.MergeTable(m, shard.PartName(p.Name, i), auto)
		if err != nil {
			return out, err
		}
		out.Merged = out.Merged || st.Merged
		out.DeltaRows += st.DeltaRows
		out.DroppedRows += st.DroppedRows
		out.ShippedBytes += st.ShippedBytes
		out.FullBytes += st.FullBytes
	}
	return out, nil
}

// dropPartitioned drops every partition, then the wrapper entry. With
// durability attached each partition drop is its own WAL record (and
// reclaims that partition's segment files), followed by one record for the
// wrapper itself so its create record is reclaimed too.
func (c *Catalog) dropPartitioned(p *shard.Partitioned) error {
	d := c.durability()
	for i := range p.Parts {
		pn := shard.PartName(p.Name, i)
		if d != nil {
			if err := d.LogDrop(pn, func() error { return c.dropTable(pn) }); err != nil {
				return err
			}
			continue
		}
		// Memory-only (including WAL replay, where the per-partition drop
		// records have already been applied individually): tolerate
		// partitions that are already gone.
		c.dropTable(pn)
	}
	unlink := func() error {
		c.mu.Lock()
		delete(c.parted, p.Name)
		c.mu.Unlock()
		return nil
	}
	if d != nil {
		return d.LogDrop(p.Name, unlink)
	}
	return unlink()
}
