package ar

import (
	"repro/internal/device"
)

// Aggregation in the A&R framework depends on the aggregation function
// (§IV-F): count is trivial; min and max bounds may only be tightened by
// candidates that certainly qualify; sum and avg are victims of destructive
// distributivity when combined with arithmetic, and their exact values are
// computed on the CPU unless all data is device resident. The phase-A
// bounds of every aggregate are folded by the plan layer's one bounds
// algebra (plan.partialAnswer in internal/plan/bounds.go); only the
// candidate count kernel lives here.

// CountApprox returns the approximate count — the candidate-set size,
// an upper bound on the exact count — as an interval whose lower bound
// subtracts the candidates that might still be false positives.
func CountApprox(m *device.Meter, cands *Candidates) Interval {
	certain := 0
	for i := range cands.IDs {
		if cands.Certain(i) {
			certain++
		}
	}
	if m != nil {
		m.GPUKernel(int64(len(cands.IDs))*4, 0, int64(len(cands.IDs)))
	}
	return Interval{int64(certain), int64(len(cands.IDs))}
}
