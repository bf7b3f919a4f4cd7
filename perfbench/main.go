// Command perfbench is the repository's served-query benchmark. Each
// workload serves generated data over loopback TCP from an in-process
// server.Server over engine.Engine, loads it from closed-loop clients (and,
// on ingest-read, an open-loop writer), checks every reply against an
// independent oracle, and prints its metrics. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, with -trace 1 the
// per-layer ones of a separate traced run. Run it from the repository root:
//
//	bash perfbench/run.sh --workload spatial-scan --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/engine"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    scale
	out      string // spans and temporary data directories
	log      io.Writer
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	workload := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "workload seed: data and statement lists derive from it")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := fs.String("out", ".bench_build", "directory for span files and temporary data directories")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1 and -seconds positive")
		return 2
	}
	tmp := filepath.Join(*out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		scale: full, out: *out, log: stdout}
	res, err := bench(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	names = names[:0]
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(stdout, "%-34s %14.4f %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// minNonZero is the non-empty guard: a workload whose reads mostly answer
// zero measures an empty-answer path, not the query it names.
const minNonZero = 0.75

func bench(cfg config) (*result, error) {
	var build func(int64, scale, float64) (*scenario, error)
	for _, w := range workloads {
		if w.name == cfg.workload {
			build = w.build
		}
	}
	if build == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	s, err := build(cfg.seed, cfg.scale, cfg.seconds)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.log, "%s seed %d: statement lists %s\n", s.name, cfg.seed, s.digest())
	setups := cfg.scale.setups
	if cfg.trace {
		setups = 1
	}
	sys, setupTimes, heap, err := setUp(s, setups, filepath.Join(cfg.out, "tmp"))
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	r := &runner{cfg: cfg, s: s, sys: sys}
	res, err := r.run()
	if serr := sys.stop(); err == nil && serr != nil {
		err = fmt.Errorf("shutdown: %w", serr)
	}
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		ts := make([]float64, len(setupTimes))
		for i, t := range setupTimes {
			ts[i] = t.Seconds()
		}
		res.Metrics["setup_s"] = metric{median(ts), "s"}
		res.Metrics["heap_mb"] = metric{float64(heap) / 1e6, "MB"}
	}
	return res, nil
}

// runner drives one set-up system through a workload.
type runner struct {
	cfg     config
	s       *scenario
	sys     *system
	workers []*worker
	wr      *writer
	samp    *sampler
}

func (r *runner) run() (*result, error) {
	var serial *serialStats
	var err error
	if r.s.serialFirst {
		if serial, err = r.serial(); err != nil {
			return nil, err
		}
	}
	for i := range r.s.clients {
		r.workers = append(r.workers, &worker{spec: &r.s.clients[i], prepare: r.s.prepare, id: i, addr: r.sys.addr})
	}
	defer func() {
		for _, w := range r.workers {
			w.close()
		}
	}()
	for _, w := range r.workers {
		for i := range w.spec.warm {
			if err := w.do(&w.spec.warm[i], false); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}

	// The measured window: one phase, or an untraced and a traced half.
	// The writer and the sampler span the whole window.
	d := time.Duration(r.cfg.seconds * float64(time.Second))
	t0 := time.Now()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var writerDone chan error
	if r.s.writes != nil {
		r.wr = &writer{addr: r.sys.addr, batches: r.s.writes, rate: r.s.rate}
		for _, w := range r.workers {
			w.writer = r.wr
		}
		writerDone = make(chan error, 1)
		go func() { writerDone <- r.wr.run(ctx, t0) }()
	}
	r.samp = newSampler(r.sys.eng)
	sampCtx, stopSamp := context.WithCancel(context.Background())
	sampDone := make(chan struct{})
	go func() {
		defer close(sampDone)
		r.samp.run(sampCtx)
	}()
	measured, tracers, probes, err := r.window(t0, d)
	if err == nil && writerDone != nil {
		// The writer finishes its schedule; one still behind it 30 s after
		// the window has a backlog that never drained.
		select {
		case err = <-writerDone:
			writerDone = nil
		case <-time.After(30 * time.Second):
			err = errors.New("invalid run: the writer's schedule was still unfinished 30 s after the window")
		}
	}
	cancel()
	if writerDone != nil {
		<-writerDone
	}
	stopSamp()
	<-sampDone
	if err != nil {
		return nil, err
	}
	if r.wr != nil {
		if err := r.checkIngest(); err != nil {
			return nil, err
		}
	}
	if !r.s.serialFirst {
		if serial, err = r.serial(); err != nil {
			return nil, err
		}
	}

	var reads, zeros, attempted, failed int64
	for _, p := range measured {
		reads += p.reads
		zeros += p.zeros
		attempted += p.attempted()
		failed += p.failed
	}
	if reads == 0 || float64(reads-zeros) < minNonZero*float64(reads) {
		return nil, fmt.Errorf("non-empty guard: %d of %d reads answered zero", zeros, reads)
	}
	fmt.Fprintf(r.cfg.log, "%s: %d of %d reads non-zero\n", r.s.name, reads-zeros, reads)
	if r.wr != nil {
		attempted += int64(len(r.wr.batches))
	}
	res := &result{Correct: true, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if !r.cfg.trace {
		qps, p50, p99 := measured[0].stats()
		res.Metrics["qps"] = metric{qps, "1/s"}
		res.Metrics["p50_ms"] = metric{p50, "ms"}
		res.Metrics["p99_ms"] = metric{p99, "ms"}
		serial.endToEnd(res.Metrics)
		return res, nil
	}
	path := filepath.Join(r.cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", r.s.name, r.cfg.seed))
	if err := writeSpans(path, tracers); err != nil {
		return nil, err
	}
	fmt.Fprintf(r.cfg.log, "%s: spans written to %s\n", r.s.name, path)
	if err := r.perLayer(res.Metrics, measured[0], measured[1], tracers, probes, serial); err != nil {
		return nil, err
	}
	return res, nil
}

// window runs the measured phases: one untraced phase, or with -trace 1 an
// untraced half and a traced half preceded by the connect probes.
func (r *runner) window(t0 time.Time, d time.Duration) ([]*phase, []*tracer, []time.Duration, error) {
	if !r.cfg.trace {
		p, err := runPhase(r.sys, r.workers, d)
		return []*phase{p}, nil, nil, err
	}
	u, err := runPhase(r.sys, r.workers, d/2)
	if err != nil {
		return nil, nil, nil, err
	}
	log := r.sys.eng.SlowLog()
	log.SetThreshold(time.Nanosecond) // every execution returns its trace
	defer log.SetThreshold(0)
	for _, w := range r.workers {
		w.close() // the probes' connection stays within the two-connection load
	}
	probeTr := newTracer(t0, 0, r.sys.eng, nil)
	tracers := []*tracer{probeTr}
	probes, err := probeConnects(r.sys.addr, r.cfg.scale.probes, probeTr)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("connect probe: %w", err)
	}
	defer func() {
		for _, t := range tracers[1:] {
			t.sess.Close()
		}
	}()
	for _, w := range r.workers {
		sess, err := r.session(w.spec.mode)
		if err != nil {
			return nil, nil, nil, err
		}
		t := newTracer(t0, (w.id+1)<<40, r.sys.eng, sess)
		w.tr = t
		tracers = append(tracers, t)
	}
	tp, err := runPhase(r.sys, r.workers, d-d/2)
	return []*phase{u, tp}, tracers, probes, err
}

// serialStats are the exact counts of one in-process client replaying the
// serial statement list.
type serialStats struct {
	n                int
	gpu, cpu, pci    time.Duration
	mallocs, alloced uint64
}

func (st *serialStats) endToEnd(m map[string]metric) {
	n := float64(st.n)
	m["sim_ms_per_query"] = metric{ms(st.gpu+st.cpu+st.pci) / n, "ms"}
	m["allocs_per_query"] = metric{float64(st.mallocs) / n, "count"}
	m["alloc_kb_per_query"] = metric{float64(st.alloced) / 1024 / n, "KiB"}
}

// serial replays the serial list in process, one statement at a time, and
// checks every answer. With one client the scheduler's contention charge
// is constant, so the simulated meters repeat exactly for a seed. Each
// statement takes the server's path for its line (execIn), so a \run
// compiles its text and plain SQL goes through the plan cache.
//
// Allocations are counted per statement. A read runs twice, first on a
// separate session, so that the counted run finds the arena holding the
// buffers this statement uses whatever ran before it, and a collection
// that emptied the sync.Pool-backed arena earlier does not show as a burst
// of allocations in some runs only. Where texts are unique the first run
// sends the statement's twin, so the counted run misses the plan cache as
// the served statement does. Writes run once.
func (r *runner) serial() (*serialStats, error) {
	ctx := context.Background()
	sessions, warm := map[engine.Mode]*engine.Session{}, map[engine.Mode]*engine.Session{}
	defer func() {
		for _, s := range sessions {
			s.Close()
		}
		for _, s := range warm {
			s.Close()
		}
	}()
	st := &serialStats{n: len(r.s.serial)}
	var m0, m1 runtime.MemStats
	for i := range r.s.serial {
		ss := &r.s.serial[i]
		for _, m := range []map[engine.Mode]*engine.Session{sessions, warm} {
			if m[ss.mode] == nil {
				s, err := r.session(ss.mode)
				if err != nil {
					return nil, err
				}
				m[ss.mode] = s
			}
		}
		if ss.st.read {
			text := ss.st.sql
			if ss.st.twin != "" {
				text = ss.st.twin
			}
			if _, err := execIn(ctx, warm[ss.mode], &ss.st, text); err != nil {
				return nil, fmt.Errorf("serial pass: %q: %w", text, err)
			}
		}
		runtime.ReadMemStats(&m0)
		res, err := execIn(ctx, sessions[ss.mode], &ss.st, ss.st.sql)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, fmt.Errorf("serial pass: %q: %w", ss.st.sql, err)
		}
		st.mallocs += m1.Mallocs - m0.Mallocs
		st.alloced += m1.TotalAlloc - m0.TotalAlloc
		if err := ss.st.check(engine.RenderResult(res, false)); err != nil {
			return nil, fmt.Errorf("oracle mismatch in serial pass on %q: %v", ss.st.sql, err)
		}
	}
	for _, s := range sessions {
		g, c, p, _ := s.Totals.Totals()
		st.gpu += g
		st.cpu += c
		st.pci += p
	}
	return st, nil
}

// session opens an in-process session in mode holding the scenario's
// prepared statements.
func (r *runner) session(mode engine.Mode) (*engine.Session, error) {
	s := r.sys.eng.SessionFor(mode)
	for _, line := range r.s.prepare {
		if _, _, _, err := s.Meta(context.Background(), line); err != nil {
			s.Close()
			return nil, fmt.Errorf("%s: %w", line, err)
		}
	}
	return s, nil
}

// execIn runs a statement in process the way the server runs its line: a
// \run through the session's prepared statement, which compiles the
// substituted text, and anything else as text through Session.Query,
// which goes through the plan cache.
func execIn(ctx context.Context, sess *engine.Session, st *stmt, text string) (*engine.Result, error) {
	if st.prep == "" {
		return sess.Query(ctx, text)
	}
	ps, ok := sess.Stmt(st.prep)
	if !ok {
		return nil, fmt.Errorf("no prepared statement %q", st.prep)
	}
	return ps.Exec(ctx, st.args...)
}

// digest fingerprints every statement list of the scenario, so two runs
// can show they sent byte-identical lists.
func (s *scenario) digest() string {
	h := uint64(14695981039346656037)
	add := func(line string) {
		for i := 0; i < len(line); i++ {
			h = (h ^ uint64(line[i])) * 1099511628211
		}
		h = (h ^ '\n') * 1099511628211
	}
	for _, c := range s.clients {
		for _, st := range append(append([]stmt(nil), c.warm...), c.list...) {
			add(st.line)
		}
	}
	for _, ss := range s.serial {
		add(ss.st.line)
	}
	for _, st := range s.writes {
		add(st.line)
	}
	return fmt.Sprintf("%016x", h)
}
