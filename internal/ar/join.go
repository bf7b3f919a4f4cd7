package ar

import (
	"fmt"

	"repro/internal/bat"
	"repro/internal/bulk"
	"repro/internal/bwd"
	"repro/internal/device"
)

// FKPositionsApprox computes, on the device, the dimension-table positions
// joined by a foreign-key column for every candidate: the approximate side
// of the paper's foreign-key join (§IV-D).
//
// The paper deliberately does not attempt generic hash joins on the device
// (massively parallel hash builds serialize on conflicting writes) and
// instead relies on a pre-built foreign-key index, which turns the join
// into a projective join. With the dense primary keys of dimension tables
// the index is positional: dimension position = fk − pkBase. This requires
// the foreign-key column to be fully device resident (ResBits == 0): an
// approximate key cannot address an exact position. Decomposed key columns
// must fall back to the CPU join path, which mirrors the paper's own
// restriction ("we leave support for unindexed joins on the GPU for future
// work").
func FKPositionsApprox(m *device.Meter, fkCol *bwd.Column, cands *Candidates, pkBase int64, dimLen int) ([]bat.OID, error) {
	if fkCol.Dec.ResBits != 0 {
		return nil, fmt.Errorf("ar: FK join needs a fully device-resident key column, got %v", fkCol.Dec)
	}
	out := oidPool.GetN(len(cands.IDs))
	for i, id := range cands.IDs {
		fk := fkCol.Dec.Base + int64(fkCol.Approx.Get(int(id)))
		pos := fk - pkBase
		if pos < 0 || pos >= int64(dimLen) {
			return nil, fmt.Errorf("ar: dangling foreign key %d outside dimension [%d,%d)", fk, pkBase, pkBase+int64(dimLen))
		}
		out[i] = bat.OID(pos)
	}
	if m != nil {
		n := len(cands.IDs)
		seq := int64(n) * 8 // read ids, write positions
		m.GPUKernel(seq, packedBytes(n, fkCol.Dec.ApproxBits), int64(n)*bulk.OpsHashProbe)
	}
	return out, nil
}
