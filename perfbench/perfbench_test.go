package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the tests check.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return &bf
}

// smokeConfig is the short mode the tests run: a smaller index, one
// set-up and one one-second round of each loop.
func smokeConfig(t *testing.T, workload string, trace bool) *config {
	return &config{workload: workload, seed: 1, seconds: 2, trace: trace,
		records: 4000, setups: 1, root: t.TempDir()}
}

// TestBenchmarkFile keeps BENCHMARK.json and the program in step: the
// same workloads, each stating its open-loop rate, and the same
// per-layer metrics with the same units.
func TestBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		got := bf.Workloads[i]
		if got.Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json names %q, the program %q", i, got.Name, w.name)
		}
		if rate := fmt.Sprintf("at %g ops/s", w.rate); !strings.Contains(got.Why, rate) {
			t.Errorf("workload %s: why %q does not state %q", w.name, got.Why, rate)
		}
	}
	schema := layerSchema()
	if len(bf.PerLayer) != len(schema) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bf.PerLayer), len(schema))
	}
	for i, e := range schema {
		if bf.PerLayer[i].Name != e[0] || bf.PerLayer[i].Unit != e[1] {
			t.Errorf("per-layer %d: BENCHMARK.json %s (%s), program %s (%s)",
				i, bf.PerLayer[i].Name, bf.PerLayer[i].Unit, e[0], e[1])
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced: no op
// fails, every metric BENCHMARK.json names is present with its unit,
// and no self time is negative.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				res, _, err := run(smokeConfig(t, w.name, trace))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				want := map[string]string{}
				if trace {
					for _, m := range bf.PerLayer {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range bf.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					got, ok := res.Metrics[name]
					if !ok || got.Unit != unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", name, got, ok, unit)
					}
					if !trace && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", name, got.Value)
					}
					if strings.Contains(name, "self_p50") && got.Value < 0 {
						t.Errorf("%s = %v is negative", name, got.Value)
					}
				}
			})
		}
	}
}

// corrupt returns a first-hop wrapper that rewrites the first match
// of re in the answers to path once more requests than the whole
// warm-up sends have passed, so only the measured phases see wrong
// answers.
func corrupt(path string, re *regexp.Regexp, after int64, served *atomic.Int64) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != path || served.Add(1) <= after {
				next.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			done := false
			body := re.ReplaceAllFunc(rec.Body.Bytes(), func(m []byte) []byte {
				if done {
					return m
				}
				done = true
				i := bytes.IndexByte(m, ':')
				n, _ := strconv.Atoi(string(m[i+1:]))
				return []byte(fmt.Sprintf("%s%d", m[:i+1], n+1))
			})
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.Header().Del("Content-Length")
			w.WriteHeader(rec.Code)
			w.Write(body)
		})
	}
}

// TestWrongAnswerCounted shows the oracle catches a deliberately wrong
// answer: a located region or a window count off by one counts as a
// failed op and makes the run incorrect.
func TestWrongAnswerCounted(t *testing.T) {
	for _, tc := range []struct{ path, field string }{
		{"/v1/locate", `"region":\d+`},
		{"/v1/stats", `"count":\d+`},
	} {
		t.Run(tc.path, func(t *testing.T) {
			cfg := smokeConfig(t, "serve-point", false)
			var served atomic.Int64
			w, _ := workloadByName(cfg.workload)
			cfg.faulty = corrupt(tc.path, regexp.MustCompile(tc.field), int64(warmUpOps(w)), &served)
			res, _, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 {
				t.Fatalf("correct=%v failed=%d after %d corrupted-path requests", res.Correct, res.Failed, served.Load())
			}
			if r := res.Metrics["success_ratio"].Value; r >= 1 {
				t.Errorf("success_ratio = %v, want below 1", r)
			}
		})
	}
}

// TestSpanValidity checks the trace checks themselves: a child outside
// its parent and a handler span without a client span are violations,
// and a well-nested op is not.
func TestSpanValidity(t *testing.T) {
	op := uint64(7<<8 | 1)
	client := span{id: op, op: op, kind: kindClient, start: 0, end: 100}
	router := span{id: 1<<63 | 1, parent: op, op: op, kind: kindRouter, start: 10, end: 90}
	call := span{id: 1<<63 | 2, parent: router.id, op: op, kind: kindCall, start: 20, end: 80}
	shard := span{id: 1<<63 | 3, parent: call.id, op: op, kind: kindServer, start: 30, end: 70}
	if bad, first := buildTree([]span{client, router, call, shard}).validate(); bad != 0 {
		t.Fatalf("well-nested op: %d violations, first %s", bad, first)
	}
	late := shard
	late.end = 85
	if bad, _ := buildTree([]span{client, router, call, late}).validate(); bad != 1 {
		t.Errorf("shard span ending after its call: %d violations, want 1", bad)
	}
	if bad, _ := buildTree([]span{router, call, shard}).validate(); bad != 3 {
		t.Errorf("op without a client span: %d violations, want 3", bad)
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChromeTrace(path, []span{client, router, call, shard}, map[string]any{"seed": 1}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 4 || doc.TraceEvents[0].Ph != "X" {
		t.Errorf("trace has %d events (first %+v), want 4 complete events", len(doc.TraceEvents), doc.TraceEvents)
	}
}
