package bwd

import (
	"testing"
	"testing/quick"

	"repro/internal/bat"
)

func TestRelaxSupersetProperty(t *testing.T) {
	f := func(raw []int32, bits uint8, rawLo, rawHi int32) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]int64, len(raw))
		for i, v := range raw {
			vals[i] = int64(v % 10000)
		}
		c, err := Decompose(bat.NewDense(vals, bat.Width32), uint(bits%16)+1, nil)
		if err != nil {
			return false
		}
		lo, hi := int64(rawLo%12000), int64(rawHi%12000)
		if lo > hi {
			lo, hi = hi, lo
		}
		r := c.Relax(lo, hi)
		for i, v := range vals {
			if v >= lo && v <= hi && !r.Contains(c.Approx.Get(i)) {
				return false // false negative: superset property broken
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRelaxFalsePositivesOnlyInBoundaryBuckets(t *testing.T) {
	vals := make([]int64, 1024)
	for i := range vals {
		vals[i] = int64(i)
	}
	c := mustDecompose(t, vals, 6) // 10 total bits -> 6/4: bucket size 16
	lo, hi := int64(100), int64(199)
	r := c.Relax(lo, hi)
	bucket := int64(16)
	for i, v := range vals {
		in := r.Contains(c.Approx.Get(i))
		exact := v >= lo && v <= hi
		if exact && !in {
			t.Fatalf("false negative at v=%d", v)
		}
		if in && !exact {
			// False positives may only live in the buckets containing the
			// bounds.
			if v/bucket != lo/bucket && v/bucket != hi/bucket {
				t.Fatalf("false positive v=%d outside boundary buckets", v)
			}
		}
	}
}

func TestRelaxEmptyAndFull(t *testing.T) {
	vals := []int64{100, 200, 300}
	c := mustDecompose(t, vals, 4)
	if r := c.Relax(400, 500); !r.Empty {
		t.Error("range above max not Empty")
	}
	if r := c.Relax(0, 50); !r.Empty {
		t.Error("range below base not Empty")
	}
	if r := c.Relax(50, 400); !r.Full {
		t.Error("covering range not Full")
	}
	if r := c.Relax(10, 5); !r.Empty {
		t.Error("inverted range not Empty")
	}
	full := c.Relax(0, 1000)
	if !full.Contains(0) || !full.Contains(c.Dec.MaxApprox()) {
		t.Error("Full range must contain every code")
	}
	empty := c.Relax(1000, 2000)
	if empty.Contains(0) {
		t.Error("Empty range contains a code")
	}
}
