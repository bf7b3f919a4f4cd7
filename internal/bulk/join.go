package bulk

import (
	"repro/internal/bat"
	"repro/internal/device"
	"repro/internal/mem"
	"repro/internal/par"
)

// FKIndex is a pre-built foreign-key index: for every foreign-key value it
// records the (single) position of the matching primary key. The paper
// pre-builds these on the CPU and treats FK joins as projective joins
// sharing the projection code path (§IV-D).
type FKIndex struct {
	pos     []bat.OID // pos[fk - base] = position in the PK column
	base    int64
	present []bool
}

// BuildFKIndex builds an index over a unique (primary-key) column.
// Returns nil if the keys are not unique or the domain is degenerate. The
// build is not metered: like the paper, the store pre-builds FK indices
// outside query execution.
func BuildFKIndex(pk []int64) *FKIndex {
	if len(pk) == 0 {
		return nil
	}
	lo, hi := pk[0], pk[0]
	for _, v := range pk[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	span := hi - lo + 1
	if span <= 0 || span > int64(4*len(pk))+1024 {
		return nil // too sparse for a positional index
	}
	idx := &FKIndex{pos: make([]bat.OID, span), base: lo, present: make([]bool, span)}
	for i, v := range pk {
		slot := v - lo
		if idx.present[slot] {
			return nil // duplicate key: not a PK
		}
		idx.present[slot] = true
		idx.pos[slot] = bat.OID(i)
	}
	return idx
}

// Lookup returns the PK-side position for a foreign-key value.
func (ix *FKIndex) Lookup(fk int64) (bat.OID, bool) {
	slot := fk - ix.base
	if slot < 0 || slot >= int64(len(ix.pos)) || !ix.present[slot] {
		return 0, false
	}
	return ix.pos[slot], true
}

// FKJoin maps every foreign-key value to its PK-side position using the
// index; with a pre-built index the join is equivalent to a projective
// join (§IV-D). Dangling foreign keys are dropped; hit[i] reports whether
// fk position i found a partner.
//
// Morsel-parallel execution: probes are independent and each worker writes a
// disjoint slice of pkPos/hit.
func FKJoin(p par.P, m *device.Meter, ix *FKIndex, fks []int64) (pkPos []bat.OID, hit []bool) {
	pkPos = oidPool.GetN(len(fks))
	hit = mem.Bools.GetN(len(fks))
	clear(hit)
	probe := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if pos, ok := ix.Lookup(fks[i]); ok {
				pkPos[i] = pos
				hit[i] = true
			} else {
				pkPos[i] = 0
			}
		}
	}
	if serial(p, len(fks)) {
		probe(0, len(fks))
	} else {
		p.For(len(fks), probe)
	}
	if m != nil {
		m.CPUWork(p.NThreads(), int64(len(fks))*8+int64(len(fks))*oidBytes, 0,
			int64(len(fks))*OpsHashProbe)
	}
	return pkPos, hit
}
