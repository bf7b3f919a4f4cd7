package ar

import (
	"errors"
	"fmt"

	"repro/internal/bat"
	"repro/internal/device"
	"repro/internal/mem"
	"repro/internal/par"
)

// ErrTranslucentPrecondition is returned when the translucent join's input
// conditions (§IV-A) are violated: B's IDs must be a subset of A's IDs with
// the same relative permutation.
var ErrTranslucentPrecondition = errors.New("ar: translucent join precondition violated")

// TranslucentJoin implements Algorithm 1 of the paper: a natural join of
// two enumerated relations on their ID columns under three conditions:
//
//  1. A's and B's IDs are unique,
//  2. A's IDs are a superset of B's IDs (equivalently, B.id is a
//     foreign-key set into A.id),
//  3. the elements of B.id occur in the same relative order in A.id.
//
// It returns, for every position in bIDs, the matching position in aIDs.
// When A's IDs are sorted and dense the join degenerates to the invisible
// join (a positional lookup); otherwise a single merge pass advances the A
// cursor until each B element is found, giving O(|A|+|B|) accesses without
// requiring sorted inputs — the key trick that tolerates the permuted
// output order of massively parallel device kernels.
//
// The preconditions are verified as a side effect: if any B element cannot
// be located before A is exhausted, ErrTranslucentPrecondition is returned.
func TranslucentJoin(aIDs, bIDs []bat.OID) ([]int, error) {
	out := mem.Ints.GetN(len(bIDs))
	if sortedDense(aIDs) {
		// Invisible join: position derivable from the ID itself.
		base := bat.OID(0)
		if len(aIDs) > 0 {
			base = aIDs[0]
		}
		for i, id := range bIDs {
			if id < base || int(id-base) >= len(aIDs) {
				mem.Ints.Put(out)
				return nil, fmt.Errorf("%w: id %d outside dense range", ErrTranslucentPrecondition, id)
			}
			out[i] = int(id - base)
		}
		return out, nil
	}
	iA := 0
	for iB, id := range bIDs {
		for iA < len(aIDs) && aIDs[iA] != id {
			iA++
		}
		if iA == len(aIDs) {
			mem.Ints.Put(out)
			return nil, fmt.Errorf("%w: id %d not found in remaining superset", ErrTranslucentPrecondition, id)
		}
		out[iB] = iA
		iA++
	}
	return out, nil
}

// sortedDense reports whether ids are consecutive ascending values — the
// fast-path test of Algorithm 1 (SORTED ∧ DENSE).
func sortedDense(ids []bat.OID) bool {
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[i-1]+1 {
			return false
		}
	}
	return true
}

// TranslucentJoinMetered is TranslucentJoin with CPU cost accounting: the
// merge reads both ID lists sequentially (O(|A|+|B|) accesses, O(|A|)
// comparisons per the paper's analysis).
func TranslucentJoinMetered(p par.P, m *device.Meter, aIDs, bIDs []bat.OID) ([]int, error) {
	pos, err := TranslucentJoin(aIDs, bIDs)
	if err != nil {
		return nil, err
	}
	// When nothing was refined away the subset equals the superset and the
	// operator aliases its input (a MonetDB view) instead of joining —
	// free in the plan, verified here in real execution by TranslucentJoin.
	if m != nil && len(aIDs) != len(bIDs) {
		m.CPUWork(p.NThreads(),
			int64(len(aIDs))*4+int64(len(bIDs))*4+int64(len(bIDs))*8, 0,
			int64(len(aIDs)))
	}
	return pos, nil
}
