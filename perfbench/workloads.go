package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/engine"
	"repro/internal/fixed"
	"repro/internal/plan"
	"repro/internal/spatial"
	"repro/internal/tpch"
)

// scale sizes a run.
type scale struct {
	spatialFixes int     // trips rows for spatial-scan
	ingestFixes  int     // trips rows loaded before ingest-read starts
	sf           float64 // TPC-H scale factor for tpch-mix and short-stmts
	list         int     // timed statements per client before its list wraps
	warm         int     // warm-up statements per client
	serialCap    int     // upper bound on the serial pass length
	setups       int     // set-ups per run; setup_s is their median
	writeRate    float64 // ingest-read INSERT statements per second
	probes       int     // connect probes in the traced run
}

// full is the benchmark. smoke is a seconds-long version of every workload
// for the benchmark's own tests.
var (
	full  = scale{spatialFixes: 2_000_000, ingestFixes: 1_000_000, sf: 0.1, list: 4000, warm: 10, serialCap: 1 << 30, setups: 11, writeRate: 80, probes: 20}
	smoke = scale{spatialFixes: 300_000, ingestFixes: 40_000, sf: 0.005, list: 300, warm: 2, serialCap: 24, setups: 2, writeRate: 50, probes: 3}
)

// fix is one trips row.
type fix struct{ trip, lon, lat, time int64 }

// stmt is one statement a client sends, with what the oracle expects.
type stmt struct {
	line string   // protocol line sent over TCP
	sql  string   // SQL the line executes (the substituted text of a \run)
	want []string // exact expected payload; nil when checked elsewhere
	topK int      // > 0: want holds every group, the reply its top topK
	read bool     // counts toward the non-empty guard
	// twin is SQL doing the same work as sql under another plan-cache key,
	// set where every text is unique: an in-process warm-up or replay runs
	// it so that, like the served statement, it misses the plan cache.
	twin string
	prep string // name of the prepared statement a \run line executes
	args []any  // its parameters, as the server passes them
	box  box    // ingest-read counts, checked against bounds after the run
	rows []fix  // INSERT rows
}

func (s *stmt) check(reply []string) error {
	if s.topK > 0 {
		return checkTopK(reply, s.want, s.topK)
	}
	if s.want != nil && !slices.Equal(reply, s.want) {
		return fmt.Errorf("got %q, want %q", reply, s.want)
	}
	return nil
}

// clientSpec is one closed-loop client: its executor mode, how many
// statements it sends per connection (0: one connection for the whole run)
// and its fixed statement list.
type clientSpec struct {
	mode      engine.Mode
	reconnect int
	warm      []stmt
	list      []stmt
}

// serialStmt is one statement of the serial pass and the mode it runs in.
type serialStmt struct {
	mode engine.Mode
	st   stmt
}

// scenario is everything a workload needs, generated from its seed.
type scenario struct {
	name    string
	load    func() (*plan.Catalog, error) // generate, load and decompose
	prepare []string                      // \prepare lines every connection and in-process session runs first
	durable bool                          // serve from a data directory
	clients []clientSpec
	serial  []serialStmt
	// serialFirst runs the serial pass before the timed run (ingest-read:
	// its inserts must land on a fresh engine to repeat exactly).
	serialFirst bool
	// ingest-read: the open-loop writer's batches, its rate, and the
	// oracle state the reads are bounded by.
	writes []stmt
	rate   float64
	base   *fixes
	extra  []fix  // rows inserted by the serial pass, in order
	final  []stmt // exact counts after the window and a \merge
}

type workloadInfo struct {
	name  string
	build func(seed int64, sc scale, seconds float64) (*scenario, error)
}

var workloads = []workloadInfo{
	{"spatial-scan", spatialScan},
	{"tpch-mix", tpchMix},
	{"short-stmts", shortStmts},
	{"ingest-read", ingestRead},
}

// rngFor derives an independent generator per purpose from the seed.
func rngFor(seed int64, purpose string) *rand.Rand {
	h := int64(1469598103934665603)
	for _, c := range purpose {
		h = (h ^ int64(c)) * 1099511628211
	}
	return rand.New(rand.NewSource(seed ^ h))
}

func capped(n int, sc scale) int { return min(n, sc.serialCap) }

// fill concatenates blocks until it holds n statements.
func fill(n int, block func() []stmt) []stmt {
	var out []stmt
	for len(out) < n {
		out = append(out, block()...)
	}
	return out[:n]
}

// ---- spatial-scan ----

const (
	boxSQL  = "select count(lon) from trips where lon between %s and %s and lat between %s and %s"
	boxTwin = "select count(lon) from trips where lat between %s and %s and lon between %s and %s"
)

func deg(v int64) string { return fixed.Format(v, fixed.Scale5) }

// boxGen draws unique range-count boxes. Eight in ten sit near the Table I
// hot region, their size stratified from a quarter to four times Table
// I's box; the rest are 0.5-1.5 degree boxes anywhere in the data's bounds.
type boxGen struct {
	rng  *rand.Rand
	seen map[box]bool
	i    int
}

func newBoxGen(rng *rand.Rand, seen map[box]bool) *boxGen {
	return &boxGen{rng: rng, seen: seen}
}

func (g *boxGen) next() box {
	for {
		var b box
		k := g.i % 10
		g.i++
		if k < 8 {
			f := math.Pow(2, -2+4*(float64(k)+g.rng.Float64())/8)
			w := float64(spatial.QueryLonHi-spatial.QueryLonLo) * f
			h := float64(spatial.QueryLatHi-spatial.QueryLatLo) * f
			cLon := float64(spatial.QueryLonLo+spatial.QueryLonHi)/2 + (g.rng.Float64()*2-1)*10_000
			cLat := float64(spatial.QueryLatLo+spatial.QueryLatHi)/2 + (g.rng.Float64()*2-1)*8_000
			b = box{int64(cLon - w/2), int64(cLon + w/2), int64(cLat - h/2), int64(cLat + h/2)}
		} else {
			w := 50_000 + g.rng.Float64()*100_000
			h := 50_000 + g.rng.Float64()*100_000
			lon := float64(spatial.LonMin) + g.rng.Float64()*(float64(spatial.LonMax-spatial.LonMin)-w)
			lat := float64(spatial.LatMin) + g.rng.Float64()*(float64(spatial.LatMax-spatial.LatMin)-h)
			b = box{int64(lon), int64(lon + w), int64(lat), int64(lat + h)}
		}
		if !g.seen[b] {
			g.seen[b] = true
			return b
		}
	}
}

func boxStmt(b box) stmt {
	q := fmt.Sprintf(boxSQL, deg(b.lonLo), deg(b.lonHi), deg(b.latLo), deg(b.latHi))
	twin := fmt.Sprintf(boxTwin, deg(b.latLo), deg(b.latHi), deg(b.lonLo), deg(b.lonHi))
	return stmt{line: q, sql: q, twin: twin, read: true, box: b}
}

func spatialScan(seed int64, sc scale, _ float64) (*scenario, error) {
	n := sc.spatialFixes
	d := spatial.Generate(n, seed)
	idx := sortFixes(d.Lon, d.Lat)
	seen := map[box]bool{}
	s := &scenario{
		name: "spatial-scan",
		load: func() (*plan.Catalog, error) { return loadSpatial(n, seed) },
	}
	withWant := func(b box) stmt {
		st := boxStmt(b)
		st.want = []string{row(nil, bigInt(idx.count(b)))}
		return st
	}
	for c := 0; c < 2; c++ {
		g := newBoxGen(rngFor(seed, fmt.Sprintf("spatial-client-%d", c)), seen)
		cs := clientSpec{}
		for i := 0; i < sc.warm+sc.list; i++ {
			cs.list = append(cs.list, withWant(g.next()))
		}
		cs.warm, cs.list = cs.list[:sc.warm], cs.list[sc.warm:]
		s.clients = append(s.clients, cs)
	}
	g := newBoxGen(rngFor(seed, "spatial-serial"), seen)
	for i := 0; i < capped(100, sc); i++ {
		s.serial = append(s.serial, serialStmt{st: withWant(g.next())})
	}
	return s, nil
}

func loadSpatial(n int, seed int64) (*plan.Catalog, error) {
	cat := newCatalog()
	d := spatial.Generate(n, seed)
	if err := d.Load(cat); err != nil {
		return nil, err
	}
	return cat, d.Decompose(cat)
}

// ---- tpch-mix ----

func loadTPCH(sf float64, seed int64) (*plan.Catalog, error) {
	cat := newCatalog()
	d := tpch.Generate(sf, seed)
	if err := d.Load(cat); err != nil {
		return nil, err
	}
	return cat, d.DecomposeAll(cat, false)
}

const (
	q1SQL = "select l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice), " +
		"sum(l_extendedprice * (1.00 - l_discount)), sum(l_extendedprice * (1.00 - l_discount) * (1.00 + l_tax)), " +
		"avg(l_quantity), avg(l_extendedprice), avg(l_discount), count(*) " +
		"from lineitem where l_shipdate <= %d group by l_returnflag, l_linestatus"
	q6SQL = "select sum(l_extendedprice * l_discount) from lineitem " +
		"where l_shipdate between %d and %d and l_discount between 0.%02d and 0.%02d and l_quantity < %d"
	q14SQL = "select sum(l_extendedprice * (1.00 - l_discount)), count(*) " +
		"from lineitem join part on lineitem.l_partkey = part.p_partkey " +
		"where l_shipdate between %d and %d and part.p_type between %d and %d"
)

// tpchStmts draws the small parameter sets of Q1, Q6 and Q14 and renders
// each distinct statement once, with its oracle answer.
func tpchStmts(rng *rand.Rand, o tpchOracle) (q1, q6, q14 []stmt, err error) {
	promoLo, promoHi, ok := tpch.PrefixRange("PROMO")
	if !ok {
		return nil, nil, nil, fmt.Errorf("tpch: no PROMO part types")
	}
	for i := 0; i < 3; i++ { // one cutoff in each third of 60..120 days
		cutoff := tpch.Day(1998, 12, 1) - int64(60+20*i+rng.Intn(20))
		q := fmt.Sprintf(q1SQL, cutoff)
		q1 = append(q1, stmt{line: q, sql: q, want: o.q1(cutoff), read: true})
	}
	for i := 0; i < 10; i++ { // two per year
		year := 1993 + i/2
		disc := int64(2 + rng.Intn(8))
		qty := int64(24 + rng.Intn(2))
		lo, hi := tpch.Day(year, 1, 1), tpch.Day(year+1, 1, 1)-1
		q := fmt.Sprintf(q6SQL, lo, hi, disc-1, disc+1, qty)
		q6 = append(q6, stmt{line: q, sql: q, want: o.q6(lo, hi, disc-1, disc+1, qty-1), read: true})
	}
	for i := 0; i < 10; i++ { // 30-day windows, so no seed draws only short months
		lo := tpch.Day(1993+rng.Intn(5), 1+rng.Intn(12), 1)
		hi := lo + 29
		q := fmt.Sprintf(q14SQL, lo, hi, promoLo, promoHi)
		q14 = append(q14, stmt{line: q, sql: q, want: o.q14(lo, hi, promoLo, promoHi), read: true})
	}
	return q1, q6, q14, nil
}

// tpchBlock is one stratified block of the mix: 1 Q1, 25 Q6 and 14 Q14 in
// a seeded order. The shares keep the median inside the Q6 latencies and
// the 99th percentile inside the Q1 ones, away from the edges between
// the statement classes, where a small shift in the mix moves them most.
func tpchBlock(rng *rand.Rand, q1, q6, q14 []stmt) []stmt {
	var b []stmt
	for i := 0; i < 40; i++ {
		switch {
		case i < 1:
			b = append(b, q1[rng.Intn(len(q1))])
		case i < 26:
			b = append(b, q6[rng.Intn(len(q6))])
		default:
			b = append(b, q14[rng.Intn(len(q14))])
		}
	}
	rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	return b
}

func tpchMix(seed int64, sc scale, _ float64) (*scenario, error) {
	o := tpchOracle{tpch.Generate(sc.sf, seed)}
	q1, q6, q14, err := tpchStmts(rngFor(seed, "tpch-params"), o)
	if err != nil {
		return nil, err
	}
	s := &scenario{
		name: "tpch-mix",
		load: func() (*plan.Catalog, error) { return loadTPCH(sc.sf, seed) },
	}
	for c := 0; c < 2; c++ {
		rng := rngFor(seed, fmt.Sprintf("tpch-client-%d", c))
		block := func() []stmt { return tpchBlock(rng, q1, q6, q14) }
		s.clients = append(s.clients, clientSpec{warm: fill(sc.warm, block), list: fill(sc.list, block)})
	}
	rng := rngFor(seed, "tpch-serial")
	for _, st := range fill(capped(40, sc), func() []stmt { return tpchBlock(rng, q1, q6, q14) }) {
		s.serial = append(s.serial, serialStmt{st: st})
	}
	return s, nil
}

// ---- short-stmts ----

const (
	countTypeSQL = "select count(*) from part where p_type between %d and %d"
	countKeySQL  = "select count(*) from part where p_partkey between %d and %d"
	groupSQL     = "select p_type, count(*) from part where p_partkey between %d and %d group by p_type order by count(*) desc limit 5"
)

// shortParams are the small parameter sets behind short-stmts: ten type
// ranges, ten key ranges for counts and ten key ranges for groupings, the
// widths stratified so that every seed spans the same spread of widths.
type shortParams struct{ types, keys, groups [][2]int64 }

func newShortParams(rng *rand.Rand, parts int) shortParams {
	var p shortParams
	for i := 0; i < 10; i++ {
		stratum := func(lo, span int) int { return lo + int(float64(span)*(float64(i)+rng.Float64())/10) }
		lo := int64(rng.Intn(len(tpch.Types) - 40))
		p.types = append(p.types, [2]int64{lo, lo + int64(stratum(5, 35))})
		for _, dst := range []*[][2]int64{&p.keys, &p.groups} {
			w := stratum(parts/50, parts/5)
			klo := 1 + int64(rng.Intn(parts-w))
			*dst = append(*dst, [2]int64{klo, klo + int64(w)})
		}
	}
	return p
}

func shortStmts(seed int64, sc scale, _ float64) (*scenario, error) {
	d := tpch.Generate(sc.sf, seed)
	o := tpchOracle{d}
	p := newShortParams(rngFor(seed, "short-params"), d.PartCount)
	// Every distinct statement renders once, as plain SQL and as a \run of
	// its prepared form; both execute the same text, but a \run compiles
	// its substituted text every time instead of going through the plan
	// cache.
	type pair struct{ plain, prepared stmt }
	variant := func(sqlf, name string, r [2]int64, want []string, topK int) pair {
		q := fmt.Sprintf(sqlf, r[0], r[1])
		st := stmt{line: q, sql: q, want: want, topK: topK, read: true}
		prep := st
		prep.line = fmt.Sprintf(`\run %s %d %d`, name, r[0], r[1])
		prep.prep, prep.args = name, []any{fmt.Sprint(r[0]), fmt.Sprint(r[1])}
		return pair{st, prep}
	}
	var counts, groups []pair
	for i := range p.types {
		counts = append(counts,
			variant(countTypeSQL, "ct", p.types[i], o.partCount("p_type", p.types[i][0], p.types[i][1]), 0),
			variant(countKeySQL, "ck", p.keys[i], o.partCount("p_partkey", p.keys[i][0], p.keys[i][1]), 0))
		groups = append(groups, variant(groupSQL, "gk", p.groups[i], o.partGroups(p.groups[i][0], p.groups[i][1]), 5))
	}
	// A block holds two plain counts, two plain groupings and the same
	// again as \run statements, in a seeded order.
	block := func(rng *rand.Rand) []stmt {
		pick := func(ps []pair) pair { return ps[rng.Intn(len(ps))] }
		b := []stmt{pick(counts).plain, pick(counts).plain, pick(groups).plain, pick(groups).plain,
			pick(counts).prepared, pick(counts).prepared, pick(groups).prepared, pick(groups).prepared}
		rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		return b
	}
	param := func(sqlf string) string {
		return strings.Replace(fmt.Sprintf(sqlf, 1, 2), "between 1 and 2", "between $1 and $2", 1)
	}
	s := &scenario{
		name: "short-stmts",
		load: func() (*plan.Catalog, error) { return loadTPCH(sc.sf, seed) },
		prepare: []string{
			`\prepare ct ` + param(countTypeSQL),
			`\prepare ck ` + param(countKeySQL),
			`\prepare gk ` + param(groupSQL),
		},
	}
	for c, mode := range []engine.Mode{engine.ModeAuto, engine.ModeClassic} {
		rng := rngFor(seed, fmt.Sprintf("short-client-%d", c))
		next := func() []stmt { return block(rng) }
		s.clients = append(s.clients, clientSpec{mode: mode, reconnect: 64,
			warm: fill(sc.warm, next), list: fill(sc.list*8, next)})
	}
	rng := rngFor(seed, "short-serial")
	for i, st := range fill(capped(400, sc), func() []stmt { return block(rng) }) {
		s.serial = append(s.serial, serialStmt{mode: s.clients[i%2].mode, st: st})
	}
	return s, nil
}

// ---- ingest-read ----

const insertRows = 64

// insertBatch draws one INSERT of insertRows fixes, half of them in and
// around the hot region the reads count over.
func insertBatch(rng *rand.Rand, trip int64) stmt {
	var sb strings.Builder
	sb.WriteString("insert into trips values ")
	st := stmt{want: []string{fmt.Sprintf("inserted %d rows into trips", insertRows)}}
	for i := 0; i < insertRows; i++ {
		var lon, lat int64
		if rng.Intn(2) == 0 {
			lon = spatial.QueryLonLo - 10_000 + rng.Int63n(spatial.QueryLonHi-spatial.QueryLonLo+20_000)
			lat = spatial.QueryLatLo - 8_000 + rng.Int63n(spatial.QueryLatHi-spatial.QueryLatLo+16_000)
		} else {
			lon = spatial.LonMin + rng.Int63n(spatial.LonMax-spatial.LonMin)
			lat = spatial.LatMin + rng.Int63n(spatial.LatMax-spatial.LatMin)
		}
		f := fix{trip: trip + int64(i), lon: lon, lat: lat, time: int64(rng.Intn(2000))}
		st.rows = append(st.rows, f)
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %s, %s, %d)", f.trip, deg(f.lon), deg(f.lat), f.time)
	}
	st.line, st.sql = sb.String(), sb.String()
	return st
}

func ingestRead(seed int64, sc scale, seconds float64) (*scenario, error) {
	n := sc.ingestFixes
	d := spatial.Generate(n, seed)
	s := &scenario{
		name:        "ingest-read",
		load:        func() (*plan.Catalog, error) { return loadSpatial(n, seed) },
		durable:     true,
		serialFirst: true,
		rate:        sc.writeRate,
		base:        sortFixes(d.Lon, d.Lat),
	}
	seen := map[box]bool{}
	// The serial pass alternates inserts and reads on the fresh engine, so
	// every read's exact answer is known when it is sent.
	srng, sg := rngFor(seed, "ingest-serial-writes"), newBoxGen(rngFor(seed, "ingest-serial-reads"), seen)
	trip := int64(100_000_000)
	for i := 0; i < capped(100, sc); i++ {
		if i%2 == 0 {
			st := insertBatch(srng, trip)
			trip += insertRows
			s.extra = append(s.extra, st.rows...)
			s.serial = append(s.serial, serialStmt{st: st})
			continue
		}
		st := boxStmt(sg.next())
		st.want = []string{row(nil, bigInt(s.base.count(st.box)+countRows(s.extra, st.box)))}
		s.serial = append(s.serial, serialStmt{st: st})
	}
	g := newBoxGen(rngFor(seed, "ingest-reads"), seen)
	cs := clientSpec{}
	for i := 0; i < sc.warm+sc.list; i++ {
		cs.list = append(cs.list, boxStmt(g.next()))
	}
	cs.warm, cs.list = cs.list[:sc.warm], cs.list[sc.warm:]
	s.clients = []clientSpec{cs}
	wrng := rngFor(seed, "ingest-writes")
	all := append([]fix(nil), s.extra...)
	for i := 0; i < int(math.Ceil(sc.writeRate*seconds)); i++ {
		st := insertBatch(wrng, trip)
		trip += insertRows
		all = append(all, st.rows...)
		s.writes = append(s.writes, st)
	}
	fg := newBoxGen(rngFor(seed, "ingest-final"), seen)
	for i := 0; i < 20; i++ {
		st := boxStmt(fg.next())
		st.want = []string{row(nil, bigInt(s.base.count(st.box)+countRows(all, st.box)))}
		s.final = append(s.final, st)
	}
	return s, nil
}
