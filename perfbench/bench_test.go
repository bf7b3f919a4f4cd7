package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

func smokeConfig(t *testing.T, workload string, seed int64, trace bool) config {
	return config{workload: workload, seed: seed, seconds: 1, trace: trace,
		scale: smoke, out: t.TempDir(), log: testLog{t}}
}

type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(string(p))
	return len(p), nil
}

func mustBench(t *testing.T, cfg config) *result {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(cfg.out, "tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	res, err := bench(cfg)
	if err != nil {
		t.Fatalf("%s seed %d: %v", cfg.workload, cfg.seed, err)
	}
	if !res.Correct || res.Attempted < 1 {
		t.Fatalf("%s seed %d: result %+v", cfg.workload, cfg.seed, res)
	}
	return res
}

// TestStatementListsFollowTheSeed: one seed gives byte-identical lists,
// another seed different ones.
func TestStatementListsFollowTheSeed(t *testing.T) {
	for _, w := range workloads {
		digest := func(seed int64) string {
			s, err := w.build(seed, smoke, 1)
			if err != nil {
				t.Fatal(err)
			}
			return s.digest()
		}
		if a, b := digest(1), digest(1); a != b {
			t.Errorf("%s: seed 1 lists differ between builds: %s vs %s", w.name, a, b)
		}
		if a, b := digest(1), digest(2); a == b {
			t.Errorf("%s: seeds 1 and 2 give the same lists", w.name)
		}
	}
}

// TestSmokeRunsRepeat: at one seed the serial pass repeats its simulated
// meter exactly, and another seed still passes the oracle.
func TestSmokeRunsRepeat(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := mustBench(t, smokeConfig(t, w.name, 1, false))
			b := mustBench(t, smokeConfig(t, w.name, 1, false))
			if x, y := a.Metrics["sim_ms_per_query"].Value, b.Metrics["sim_ms_per_query"].Value; x != y {
				t.Errorf("sim_ms_per_query differs at one seed: %v vs %v", x, y)
			}
			mustBench(t, smokeConfig(t, w.name, 2, false))
		})
	}
}

// TestMetricsMatchBenchmarkJSON: every run prints exactly the metrics the
// benchmark declares, and a traced run writes its spans.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	want := func(ms []struct{ Name, Unit string }) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := smokeConfig(t, w.name, 3, trace)
			res := mustBench(t, cfg)
			units := want(spec.EndToEnd)
			if trace {
				units = want(spec.PerLayer)
				spans, err := filepath.Glob(filepath.Join(cfg.out, "spans-*.jsonl"))
				if err != nil || len(spans) != 1 {
					t.Errorf("%s: span files %v (%v)", w.name, spans, err)
				}
			}
			var got []string
			for name, m := range res.Metrics {
				got = append(got, name)
				if units[name] != m.Unit {
					t.Errorf("%s trace=%v: %s unit %q, declared %q", w.name, trace, name, m.Unit, units[name])
				}
			}
			sort.Strings(got)
			if len(got) != len(units) {
				t.Errorf("%s trace=%v: printed %v, declared %d metrics", w.name, trace, got, len(units))
			}
		}
	}
}

func TestOracleRejectsWrongReplies(t *testing.T) {
	st := stmt{want: []string{"[42]"}}
	if err := st.check([]string{"[42]"}); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]string{{"[41]"}, {}, {"[42]", "[42]"}} {
		if st.check(bad) == nil {
			t.Errorf("reply %q accepted for %q", bad, st.want)
		}
	}
	all := []string{"[3] -> [9]", "[1] -> [7]", "[4] -> [7]", "[2] -> [5]"}
	top := stmt{want: all, topK: 2}
	for _, ok := range [][]string{{"[3] -> [9]", "[1] -> [7]"}, {"[3] -> [9]", "[4] -> [7]"}} {
		if err := top.check(ok); err != nil {
			t.Errorf("tied top-k reply %q rejected: %v", ok, err)
		}
	}
	for _, bad := range [][]string{{"[3] -> [9]", "[2] -> [5]"}, {"[3] -> [9]", "[1] -> [8]"}, {"[3] -> [9]"}} {
		if top.check(bad) == nil {
			t.Errorf("top-k reply %q accepted", bad)
		}
	}
	tied := stmt{want: []string{"[3] -> [9]", "[1] -> [9]", "[2] -> [5]"}, topK: 2}
	if tied.check([]string{"[3] -> [9]", "[3] -> [9]"}) == nil {
		t.Error("top-k reply repeating a tied group accepted")
	}
	if !isZero([]string{"[0]"}) || !isZero(nil) || isZero([]string{"[1 0] -> [0 3]"}) {
		t.Error("isZero misjudges replies")
	}
}
