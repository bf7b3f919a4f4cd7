package main

import (
	"fmt"
	"math/big"
	"sort"
	"strconv"
	"strings"

	"repro/internal/tpch"
)

// The answer oracle computes every expected reply straight from the
// generated columns, one row at a time, with math/big for sums. It never
// goes through the engine, so a defect shared by the classic and A&R
// executors still shows as a mismatch.

// box is a closed lon/lat range in 1e-5 degree fixed point.
type box struct{ lonLo, lonHi, latLo, latHi int64 }

func (b box) holds(lon, lat int64) bool {
	return lon >= b.lonLo && lon <= b.lonHi && lat >= b.latLo && lat <= b.latHi
}

// fixes is a set of GPS fixes sorted by longitude, so a box count visits
// only the rows inside the box's longitude slab and tests each of them.
type fixes struct{ lon, lat []int64 }

func sortFixes(lon, lat []int64) *fixes {
	idx := make([]int, len(lon))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return lon[idx[a]] < lon[idx[b]] })
	f := &fixes{lon: make([]int64, len(idx)), lat: make([]int64, len(idx))}
	for i, j := range idx {
		f.lon[i], f.lat[i] = lon[j], lat[j]
	}
	return f
}

func (f *fixes) len() int { return len(f.lon) }

func (f *fixes) count(b box) int64 {
	var n int64
	for i := sort.Search(len(f.lon), func(i int) bool { return f.lon[i] >= b.lonLo }); i < len(f.lon) && f.lon[i] <= b.lonHi; i++ {
		if f.lat[i] >= b.latLo && f.lat[i] <= b.latHi {
			n++
		}
	}
	return n
}

// countRows counts unsorted fixes inside a box.
func countRows(rows []fix, b box) int64 {
	var n int64
	for _, r := range rows {
		if b.holds(r.lon, r.lat) {
			n++
		}
	}
	return n
}

// sum is an exact integer sum; p and f are scratch.
type sum struct{ v, p, f big.Int }

func (s *sum) add(v int64) { s.v.Add(&s.v, s.f.SetInt64(v)) }

// addProd adds the product of the factors.
func (s *sum) addProd(factors ...int64) {
	s.p.SetInt64(1)
	for _, f := range factors {
		s.p.Mul(&s.p, s.f.SetInt64(f))
	}
	s.v.Add(&s.v, &s.p)
}

func (s *sum) value() *big.Int { return new(big.Int).Set(&s.v) }

// row renders one result row the way the server prints it.
func row(keys []int64, vals ...*big.Int) string {
	s := make([]string, len(vals))
	for i, v := range vals {
		s[i] = v.String()
	}
	line := "[" + strings.Join(s, " ") + "]"
	if len(keys) == 0 {
		return line
	}
	return fmt.Sprint(keys) + " -> " + line
}

func bigInt(v int64) *big.Int { return big.NewInt(v) }

// tpchOracle answers the tpch-mix and short-stmts statements.
type tpchOracle struct{ d *tpch.Data }

// q1 is the pricing summary: the SQL multiplies at scale 1 (no literal
// operand carries a scale), so products stay in raw fixed-point units.
func (o tpchOracle) q1(cutoff int64) []string {
	type acc struct{ qty, base, disc, charge, discount sum }
	groups := map[[2]int64]*acc{}
	counts := map[[2]int64]int64{}
	d := o.d
	for i := 0; i < d.LineCount; i++ {
		if d.Shipdate[i] > cutoff {
			continue
		}
		k := [2]int64{d.RetFlag[i], d.LineStat[i]}
		a := groups[k]
		if a == nil {
			a = &acc{}
			groups[k] = a
		}
		a.qty.add(d.Quantity[i])
		a.base.add(d.ExtPrice[i])
		a.disc.addProd(d.ExtPrice[i], 100-d.Discount[i])
		a.charge.addProd(d.ExtPrice[i], 100-d.Discount[i], 100+d.Tax[i])
		a.discount.add(d.Discount[i])
		counts[k]++
	}
	keys := make([][2]int64, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		a, n := groups[k], bigInt(counts[k])
		avg := func(s *sum) *big.Int { return new(big.Int).Quo(s.value(), n) }
		out = append(out, row(k[:], a.qty.value(), a.base.value(), a.disc.value(), a.charge.value(),
			avg(&a.qty), avg(&a.base), avg(&a.discount), n))
	}
	return out
}

// q6 is the forecasting-revenue sum over shipdate, discount and quantity
// ranges.
func (o tpchOracle) q6(shipLo, shipHi, discLo, discHi, qtyMax int64) []string {
	var s sum
	d := o.d
	for i := 0; i < d.LineCount; i++ {
		if d.Shipdate[i] >= shipLo && d.Shipdate[i] <= shipHi &&
			d.Discount[i] >= discLo && d.Discount[i] <= discHi && d.Quantity[i] <= qtyMax {
			s.addProd(d.ExtPrice[i], d.Discount[i])
		}
	}
	return []string{row(nil, s.value())}
}

// q14 is the promotion revenue and its row count: lineitems in a shipdate
// range joined to parts whose type code lies in [typeLo, typeHi].
func (o tpchOracle) q14(shipLo, shipHi, typeLo, typeHi int64) []string {
	var s sum
	var n int64
	d := o.d
	for i := 0; i < d.LineCount; i++ {
		if d.Shipdate[i] < shipLo || d.Shipdate[i] > shipHi {
			continue
		}
		t := d.PType[d.Partkey[i]-1] // p_partkey is dense from 1
		if t >= typeLo && t <= typeHi {
			s.addProd(d.ExtPrice[i], 100-d.Discount[i])
			n++
		}
	}
	return []string{row(nil, s.value(), bigInt(n))}
}

// partCount counts parts with col in [lo, hi].
func (o tpchOracle) partCount(col string, lo, hi int64) []string {
	vals := o.d.PKey
	if col == "p_type" {
		vals = o.d.PType
	}
	var n int64
	for _, v := range vals {
		if v >= lo && v <= hi {
			n++
		}
	}
	return []string{row(nil, bigInt(n))}
}

// partGroups returns the count of parts per type among p_partkey in
// [lo, hi], ordered by count descending, then type.
func (o tpchOracle) partGroups(lo, hi int64) []string {
	counts := map[int64]int64{}
	for i, pk := range o.d.PKey {
		if pk >= lo && pk <= hi {
			counts[o.d.PType[i]]++
		}
	}
	types := make([]int64, 0, len(counts))
	for t := range counts {
		types = append(types, t)
	}
	sort.Slice(types, func(a, b int) bool {
		if counts[types[a]] != counts[types[b]] {
			return counts[types[a]] > counts[types[b]]
		}
		return types[a] < types[b]
	})
	out := make([]string, len(types))
	for i, t := range types {
		out[i] = row([]int64{t}, bigInt(counts[t]))
	}
	return out
}

// checkTopK verifies an "order by count desc limit k" reply against every
// group of the oracle (all, in oracle order). Groups tied on the count
// may come back in any order, so the reply must hold k distinct true
// groups whose counts are the k largest.
func checkTopK(reply, all []string, k int) error {
	want := all
	if len(want) > k {
		want = want[:k]
	}
	if len(reply) != len(want) {
		return fmt.Errorf("got %d rows, want %d", len(reply), len(want))
	}
	truth := make(map[string]bool, len(all))
	for _, l := range all {
		truth[l] = true
	}
	seen := make(map[string]bool, len(reply))
	for i, l := range reply {
		if !truth[l] {
			return fmt.Errorf("row %q is not a true group count", l)
		}
		if seen[l] {
			return fmt.Errorf("row %q appears twice", l)
		}
		seen[l] = true
		if lastInt(l) != lastInt(want[i]) {
			return fmt.Errorf("row %d count %d, want %d", i, lastInt(l), lastInt(want[i]))
		}
	}
	return nil
}

// lastInt parses the last value of a rendered row ("[n]" or "[k] -> [n]"),
// or returns -1, which no count equals, when the line is not one.
func lastInt(line string) int64 {
	f := strings.Fields(strings.TrimSuffix(line, "]"))
	if len(f) == 0 {
		return -1
	}
	v, err := strconv.ParseInt(strings.TrimPrefix(f[len(f)-1], "["), 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// isZero reports whether a reply carries no non-zero value: no rows, or
// rows whose values are all 0.
func isZero(reply []string) bool {
	for _, l := range reply {
		if i := strings.LastIndex(l, "->"); i >= 0 {
			l = l[i+2:]
		}
		for _, f := range strings.Fields(strings.Trim(strings.TrimSpace(l), "[]")) {
			if f != "0" {
				return false
			}
		}
	}
	return true
}
