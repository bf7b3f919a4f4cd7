// Package ar implements the Approximate & Refine (A&R) operator library —
// the paper's primary contribution (§III–IV).
//
// Instead of classic relational operators over a unified data
// representation, each operator is split into two:
//
//   - an approximation operator that runs on the fast device (the simulated
//     GPU) over the bit-packed approximations and produces a candidate
//     result: a superset of the true result for structural operators, or a
//     value interval for arithmetic;
//   - a refinement operator that runs on the CPU, combining the shipped
//     candidates with the CPU-resident residuals to produce the exact
//     result (false positives eliminated, values reconstructed by bitwise
//     concatenation).
//
// Approximation operators never depend on refinement results, so an entire
// approximation subplan can execute on the device first — yielding a fast
// approximate query answer at no extra cost (§III item 4) — before the
// refinement subplan starts on the CPU.
package ar

import (
	"sync"

	"repro/internal/bat"
	"repro/internal/bwd"
	"repro/internal/device"
	"repro/internal/mem"
)

// oidPool recycles candidate ID lists through the shared bat.OIDPool
// arena; codes ride the shared mem.U64 pool.
var oidPool = &bat.OIDPool

// candPool recycles Candidates headers (struct + attach backing array) so
// a refine step's output costs no allocation at all in steady state.
var candPool = sync.Pool{New: func() any { return new(Candidates) }}

// getCandidates takes a recycled (or fresh) empty candidate set marked as
// arena-backed.
func getCandidates() *Candidates {
	c := candPool.Get().(*Candidates)
	c.pooled = true
	return c
}

// attachment carries the approximation codes of one column, positionally
// aligned with a candidate list, together with the relaxed predicate range
// that was applied on that column (zero ApproxRange when the column was
// only projected, not filtered). Attachments sharing a non-zero group id
// belong to one disjunction (OR) predicate: a candidate satisfies the
// group when any member's predicate holds.
type attachment struct {
	col      *bwd.Column
	codes    []uint64
	rng      bwd.ApproxRange
	filtered bool
	group    int
}

// Candidates is the output of approximation operators on the structural
// path: a list of tuple IDs that is a superset of the exact result, in
// device (permuted) order, plus the approximation codes of every column
// that has been touched so far. The codes travel with the IDs because the
// approximations are device-resident only: once candidates are shipped to
// the host, the codes are the CPU's only view of the major bits.
type Candidates struct {
	IDs     []bat.OID
	attach  []attachment
	shipped bool
	// pooled marks IDs and every attachment's codes as arena-backed:
	// Release returns them to the pools. Sets built from caller-owned
	// slices stay unpooled and Release is a no-op on them.
	pooled bool
}

// Release returns an arena-backed candidate set's buffers (IDs and every
// attached code column) to the arena and empties the set. It must only be
// called once nothing references the set — the pipeline calls it when a
// stage hands off and the predecessor intermediate is provably dead.
// Releasing an unpooled set is a no-op.
func (c *Candidates) Release() {
	if c == nil || !c.pooled {
		return
	}
	c.pooled = false
	oidPool.Put(c.IDs)
	c.IDs = nil
	for i := range c.attach {
		mem.U64.Put(c.attach[i].codes)
		c.attach[i] = attachment{}
	}
	c.attach = c.attach[:0]
	c.shipped = false
	candPool.Put(c)
}

// Len returns the number of candidate tuples.
func (c *Candidates) Len() int { return len(c.IDs) }

// CodesFor returns the approximation codes of col aligned with the
// candidate IDs, or nil if col was never attached.
func (c *Candidates) CodesFor(col *bwd.Column) []uint64 {
	for i := range c.attach {
		if c.attach[i].col == col {
			return c.attach[i].codes
		}
	}
	return nil
}

// Certain reports whether candidate i is guaranteed to satisfy every
// relaxed predicate exactly (i.e. it cannot be a false positive): its code
// on every filtered column lies strictly inside the relaxed range, away
// from the boundary buckets. For a disjunction group, some member must be
// certainly satisfied. Approximate min/max aggregation uses this to bound
// the true extremum (§IV-F, Fig 6).
func (c *Candidates) Certain(i int) bool {
	for k := range c.attach {
		a := &c.attach[k]
		if !a.filtered {
			continue
		}
		if a.group != 0 {
			// Disjunction groups: each group needs one certainly-satisfied
			// member. Evaluate a group once, at its first attachment —
			// attachment lists are a handful of filters long, so the inner
			// scans stay cheaper than any per-call scratch allocation
			// (Certain runs per candidate in approxAnswer's hot loop).
			first := true
			for j := 0; j < k; j++ {
				if c.attach[j].filtered && c.attach[j].group == a.group {
					first = false
					break
				}
			}
			if !first {
				continue
			}
			ok := false
			for j := k; j < len(c.attach); j++ {
				b := &c.attach[j]
				if b.filtered && b.group == a.group && certainIn(b, i) {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
			continue
		}
		if a.col.Dec.ResBits == 0 {
			continue // exact codes: no boundary uncertainty
		}
		code := a.codes[i]
		if a.rng.Full {
			continue
		}
		if code == a.rng.Lo || code == a.rng.Hi {
			return false
		}
	}
	return true
}

// certainIn reports whether candidate i certainly satisfies one
// disjunct's exact predicate: its code lies inside the relaxed range and
// away from the boundary buckets (always, for exact codes).
func certainIn(a *attachment, i int) bool {
	if a.rng.Empty {
		return false
	}
	if a.rng.Full {
		return true
	}
	code := a.codes[i]
	if code < a.rng.Lo || code > a.rng.Hi {
		return false
	}
	if a.col.Dec.ResBits == 0 {
		return true
	}
	return code != a.rng.Lo && code != a.rng.Hi
}

// Ship charges the PCI-E transfer that moves the candidate set (IDs plus
// every attached code column) from device to host. Calling it twice is a
// no-op: data already on the host is not re-shipped.
func (c *Candidates) Ship(m *device.Meter) {
	if c.shipped {
		return
	}
	c.shipped = true
	if m == nil {
		return
	}
	n := len(c.IDs)
	bytes := int64(n) * 4
	for i := range c.attach {
		// Codes of fully device-resident columns are not shipped for
		// refinement: with no residual bits there is nothing to refine
		// (§IV-C); consumers that need the values ship them as explicit
		// projections.
		if c.attach[i].col.Dec.ResBits == 0 {
			continue
		}
		bytes += packedBytes(n, c.attach[i].col.Dec.ApproxBits)
	}
	m.Transfer(bytes)
}

// filterTo builds a new candidate set containing the positions listed in
// keep (indices into c), compacting every attachment to preserve
// alignment. Order of keep indices is preserved, so the result has the
// same permutation as c (§IV-A item 2). The new set's buffers come from
// the arena; the input is left untouched (callers release it when dead).
func (c *Candidates) filterTo(keep []int) *Candidates {
	out := getCandidates()
	out.IDs = oidPool.GetN(len(keep))
	out.shipped = c.shipped
	for i, k := range keep {
		out.IDs[i] = c.IDs[k]
	}
	for ai := range c.attach {
		src := &c.attach[ai]
		codes := mem.U64.GetN(len(keep))
		for i, k := range keep {
			codes[i] = src.codes[k]
		}
		out.attach = append(out.attach, attachment{col: src.col, codes: codes, rng: src.rng, filtered: src.filtered, group: src.group})
	}
	return out
}

// Filter builds a new candidate set containing only the positions listed
// in keep (indices into c, in candidate order), compacting every attached
// code column to preserve alignment. The query layer uses it to discharge
// rows masked by a deletion bitmap on the device: the bitmap is mirrored
// device-side (shipped when rows are deleted), so masking is one GPU
// pass over the candidate IDs — charged by the caller, which knows the
// bitmap footprint.
func (c *Candidates) Filter(keep []int) *Candidates {
	return c.filterTo(keep)
}

// packedBytes is the physical byte footprint of n bit-packed values of the
// given width, as charged for transfers and scans.
func packedBytes(n int, bits uint) int64 {
	return (int64(n)*int64(bits) + 7) / 8
}

// residualBytes is the per-value byte cost of a random residual access:
// sub-byte residuals still cost a full byte to touch.
func residualBytes(bits uint) int64 {
	if bits == 0 {
		return 0
	}
	return int64(bits+7) / 8
}
