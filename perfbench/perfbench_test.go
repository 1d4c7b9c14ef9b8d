package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"plinger/internal/serve"
)

// benchmarkSpec is the part of ../BENCHMARK.json the test checks against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tinyConfig is a short run of one workload: a one-second window, a small
// hot set, no extra set-up probes, SCDM alone in the accuracy pass.
func tinyConfig(t *testing.T, workload string, trace bool) runConfig {
	return runConfig{
		workload: workload, seed: 7, window: time.Second, trace: trace,
		hotCl: 2, hotPk: 1, readBack: 20,
		root: "..", state: t.TempDir(),
	}
}

// TestEveryMetricEmitted runs each workload briefly, untraced and traced,
// and checks that the run is correct and reports exactly the metrics
// BENCHMARK.json names, each with its unit.
func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the service: seconds per workload")
	}
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			res, err := run(tinyConfig(t, w.Name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d %v", w.Name, trace, res.Correct, res.Attempted, res.Failed, res.violations)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// tamperResults rewrites the result of every response whose source
// matches, doubling its first number field, and leaves the rest alone.
func tamperResults(source string) func([]byte) []byte {
	return func(body []byte) []byte {
		var env map[string]json.RawMessage
		if json.Unmarshal(body, &env) != nil || string(env["source"]) != `"`+source+`"` {
			return body
		}
		var res map[string]any
		if json.Unmarshal(env["result"], &res) != nil {
			return body
		}
		for _, field := range []string{"cl", "p"} {
			if v, ok := res[field].([]any); ok && len(v) > 0 {
				v[0] = v[0].(float64) * 2
			}
		}
		env["result"], _ = json.Marshal(res)
		out, _ := json.Marshal(env)
		return out
	}
}

// TestCorruptedResponsesAreCaught feeds the checks deliberately corrupted
// responses: a cache hit whose bytes differ from the first body served
// for its key, and a first response with a value out of range.
func TestCorruptedResponsesAreCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the service")
	}
	cases := []struct {
		name   string
		tamper func([]byte) []byte
	}{
		{"hit differs from first body", tamperResults("cache")},
		{"negative sigma8", func(body []byte) []byte {
			var env map[string]json.RawMessage
			if json.Unmarshal(body, &env) != nil {
				return body
			}
			var res map[string]any
			if json.Unmarshal(env["result"], &res) != nil {
				return body
			}
			if _, ok := res["sigma8"]; !ok {
				return body
			}
			res["sigma8"] = -1.0
			env["result"], _ = json.Marshal(res)
			out, _ := json.Marshal(env)
			return out
		}},
	}
	for _, c := range cases {
		cfg := tinyConfig(t, "scan", true)
		cfg.tamper = c.tamper
		res, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: the checks passed a corrupted response (attempted %d, failed %d)", c.name, res.Attempted, res.Failed)
		}
	}
}

// TestSeedDeterminesRequests checks that the generated requests are a
// function of the seed alone and that scan draws never share a cache key.
func TestSeedDeterminesRequests(t *testing.T) {
	a, b := newCosmoGen(3), newCosmoGen(3)
	d := serve.DefaultDefaults()
	seen := map[string]bool{}
	for i := 0; i < 2000; i++ {
		ca, cb := a.next(), b.next()
		if defaultCl(ca).id() != defaultCl(cb).id() {
			t.Fatalf("draw %d differs between two generators with one seed", i)
		}
		key := serve.ClRequest{Config: &ca}.Key(d)
		if seen[key] {
			t.Fatalf("draw %d shares cache key %s with an earlier draw", i, key)
		}
		seen[key] = true
	}
}

// TestHotSetRanksIndependentOfSeed checks that the seed changes the hot
// set's fresh cosmologies but not which kind of product sits at each Zipf
// rank, nor the warm grid's ranks.
func TestHotSetRanksIndependentOfSeed(t *testing.T) {
	a, b := newHotSet(newCosmoGen(1), 24, 16), newHotSet(newCosmoGen(2), 24, 16)
	if len(a.keys) != len(b.keys) {
		t.Fatalf("hot sets of %d and %d keys", len(a.keys), len(b.keys))
	}
	if a.keys[0].id() != newClSpec(serve.ClRequest{}).id() {
		t.Errorf("rank 0 is %s, want the default C_l", a.keys[0].id())
	}
	differ := false
	for i := range a.keys {
		if a.keys[i].kind != b.keys[i].kind {
			t.Errorf("rank %d: %s under one seed, %s under another", i, a.keys[i].kind, b.keys[i].kind)
		}
		differ = differ || a.keys[i].id() != b.keys[i].id()
	}
	if !differ {
		t.Error("two seeds gave identical hot sets")
	}
}

// TestLedgerCatchesChangedDigest checks the cross-run comparison: a
// request whose result digest differs from the one an earlier run stored
// is a violation, and new digests are recorded.
func TestLedgerCatchesChangedDigest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "digests.json")
	ck := newChecker()
	if err := verifyLedger(path, map[string]string{"a": "1", "b": "2"}, ck); err != nil {
		t.Fatal(err)
	}
	if err := verifyLedger(path, map[string]string{"a": "1", "c": "3"}, ck); err != nil {
		t.Fatal(err)
	}
	if ck.failed.Load() != 0 {
		t.Fatalf("matching and new digests counted %d violations", ck.failed.Load())
	}
	if err := verifyLedger(path, map[string]string{"b": "changed"}, ck); err != nil {
		t.Fatal(err)
	}
	if ck.failed.Load() != 1 {
		t.Fatalf("a changed digest counted %d violations, want 1", ck.failed.Load())
	}
}
