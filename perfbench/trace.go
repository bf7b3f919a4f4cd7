package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/sql"
)

// The traced run times the benchmark's own calls into each layer's public
// entry point (server.Client.Query, sql.Compile, engine.Session.Query or
// engine.Stmt.Exec) and takes plan stages from the Result.Trace they return
// while the slow-query log is armed. Spans stay in memory and are written out
// when the run ends.

// span is one timed call. Times are nanoseconds since the run started.
type span struct {
	Name   string `json:"name"`
	Stmt   int64  `json:"stmt"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records the spans of one worker and the per-statement layer
// times derived from them.
type tracer struct {
	t0     time.Time
	idBase int
	eng    *engine.Engine
	sess   *engine.Session
	spans  []span

	serverSelf, engineSelf, compile []time.Duration
	stages                          map[string]time.Duration
	other                           time.Duration
	candidates, refined             int64
	estErr                          []float64
}

// newTracer records spans for one worker; sess replays its statements
// (nil for the connect probes, which replay nothing).
func newTracer(t0 time.Time, idBase int, eng *engine.Engine, sess *engine.Session) *tracer {
	return &tracer{t0: t0, idBase: idBase, eng: eng, sess: sess, stages: map[string]time.Duration{}}
}

func (t *tracer) add(name string, stmtID int64, parent int, start, end time.Time) int {
	id := t.idBase + len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, Stmt: stmtID, ID: id, Parent: parent,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return id
}

// statement records the client round trip of one statement, then replays
// the statement in process: sql.Compile on its own, and the statement on
// the server's path for its line (execIn: Session.Query, or Stmt.Exec for
// a \run) with the plan stages of its trace as children. Where texts are
// unique the replay sends the statement's twin, so that it misses the plan
// cache and compiles as the round trip did.
func (t *tracer) statement(stmtID int64, st *stmt, start, end time.Time) error {
	t.add("server.Client.Query", stmtID, 0, start, end)
	c0 := time.Now()
	_, err := sql.Compile(t.eng.Catalog(), st.sql)
	c1 := time.Now()
	if err != nil {
		return fmt.Errorf("traced compile of %q: %w", st.sql, err)
	}
	t.add("sql.Compile", stmtID, 0, c0, c1)
	text, name := st.sql, "engine.Session.Query"
	if st.twin != "" {
		text = st.twin
	}
	if st.prep != "" {
		name = "engine.Stmt.Exec"
	}
	q0 := time.Now()
	res, err := execIn(context.Background(), t.sess, st, text)
	q1 := time.Now()
	if err != nil {
		return fmt.Errorf("traced replay of %q: %w", st.line, err)
	}
	if err := st.check(engine.RenderResult(res, false)); err != nil {
		return fmt.Errorf("oracle mismatch on traced replay of %q: %v", st.line, err)
	}
	sq := t.add(name, stmtID, 0, q0, q1)
	t.compile = append(t.compile, c1.Sub(c0))
	t.serverSelf = append(t.serverSelf, end.Sub(start)-q1.Sub(q0))
	tr := res.Trace
	if tr == nil {
		t.engineSelf = append(t.engineSelf, q1.Sub(q0))
		return nil
	}
	t.engineSelf = append(t.engineSelf, q1.Sub(q0)-tr.Wall)
	ps := t.add("plan.execute", stmtID, sq, tr.Start, tr.Start.Add(tr.Wall))
	at, covered := tr.Start, time.Duration(0)
	for _, ev := range tr.Events {
		t.add("plan."+ev.Stage, stmtID, ps, at, at.Add(ev.Wall))
		at = at.Add(ev.Wall)
		covered += ev.Wall
		t.stages[ev.Stage] += ev.Wall
	}
	t.other += tr.Wall - covered
	if tr.Mode == "ar" {
		t.candidates += tr.Candidates
		t.refined += tr.Refined
	}
	if tr.EstCandidates >= 0 {
		t.estErr = append(t.estErr, tr.EstError())
	}
	return nil
}

// probeConnects times Dial through the first "ok" n times.
func probeConnects(addr string, n int, t *tracer) ([]time.Duration, error) {
	var out []time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		cl, err := server.Dial(addr)
		if err != nil {
			return nil, err
		}
		_, err = cl.Query(`\mode`)
		t1 := time.Now()
		cl.Close()
		if err != nil {
			return nil, err
		}
		t.add("server.connect", -1, 0, t0, t1)
		out = append(out, t1.Sub(t0))
	}
	return out, nil
}

// writeSpans writes every span as one JSON object per line.
func writeSpans(path string, ts []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range ts {
		for _, s := range t.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// scrape reads the engine's metrics registry (its Prometheus text
// exposition) into series -> value.
func scrape(eng *engine.Engine) map[string]float64 {
	out := map[string]float64{}
	for _, l := range eng.Metrics().Text() {
		if strings.HasPrefix(l, "#") {
			continue
		}
		i := strings.LastIndexByte(l, ' ')
		if v, err := strconv.ParseFloat(l[i+1:], 64); err == nil {
			out[l[:i]] = v
		}
	}
	return out
}

// histQuantile interpolates the q-quantile, in seconds, of the
// observations a registry histogram gained between two scrapes.
func histQuantile(before, after map[string]float64, name string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for k, v := range after {
		le, ok := strings.CutPrefix(k, prefix)
		if !ok || strings.HasPrefix(le, "+Inf") {
			continue
		}
		f, err := strconv.ParseFloat(strings.TrimSuffix(le, `"}`), 64)
		if err == nil {
			bs = append(bs, bucket{f, v - before[k]})
		}
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := after[name+"_count"] - before[name+"_count"]
	if total == 0 {
		return 0
	}
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.n >= q*total {
			if b.n == prev {
				return b.le
			}
			return lo + (b.le-lo)*(q*total-prev)/(b.n-prev)
		}
		lo, prev = b.le, b.n
	}
	return lo // beyond the last finite bucket
}

func delta(p *phase, series string) float64 { return p.reg1[series] - p.reg0[series] }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func median(fs []float64) float64 {
	if len(fs) == 0 {
		return 0
	}
	s := append([]float64(nil), fs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
