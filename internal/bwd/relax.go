package bwd

import (
	"repro/internal/bitpack"
)

// ApproxRange is a closed interval [Lo, Hi] of approximation codes in the
// shifted domain, plus emptiness/totality flags. It is the compiled form
// of a relaxed predicate: a GPU kernel admits a tuple iff its approximation
// code falls inside the interval.
type ApproxRange struct {
	Lo, Hi uint64
	Empty  bool // no approximation can match
	Full   bool // every approximation matches; the scan can be skipped
}

// Contains reports whether an approximation code satisfies the relaxed
// predicate.
func (r ApproxRange) Contains(code uint64) bool {
	if r.Empty {
		return false
	}
	if r.Full {
		return true
	}
	return code >= r.Lo && code <= r.Hi
}

// Relax relaxes the closed value-domain predicate lo <= v <= hi into the
// approximation domain (§IV-B). The result admits every tuple whose exact
// value satisfies the predicate (superset property); tuples in the two
// boundary buckets may be false positives.
//
// One-sided predicates are expressed with the int64 extremes; since integer
// predicates are closed under <-to-<= rewriting (v < x  ≡  v <= x-1), Relax
// together with that rewrite covers the paper's full f(x) table.
func (c *Column) Relax(lo, hi int64) ApproxRange {
	if lo > hi {
		return ApproxRange{Empty: true}
	}
	maxVal := c.Dec.Base + int64(bitpack.Mask(c.Dec.TotalBits))
	if hi < c.Dec.Base || lo > maxVal {
		return ApproxRange{Empty: true}
	}
	// Out-of-domain bounds clamp to the bottom and top codes.
	var r ApproxRange
	r.Lo, _ = c.ValueToApprox(lo)
	r.Hi, _ = c.ValueToApprox(hi)
	// Full only when the VALUE predicate covers the whole domain, not
	// merely the code range: with lo inside bucket 0 (or hi inside the top
	// bucket) the boundary buckets still hold potential false positives,
	// and consumers treat Full as "no boundary uncertainty" (Certain, the
	// skipped scan) — marking such a range Full would overstate the
	// phase-A lower bounds.
	if lo <= c.Dec.Base && hi >= maxVal {
		r.Full = true
	}
	return r
}
