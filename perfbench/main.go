// Command perfbench is the serving benchmark of the fairindex
// repository. One process sets up a workload's deployment — the
// internal/server HTTP server over a Fair KD index, or the
// internal/router scatter-gather front end over shard.Split shards —
// drives it over loopback HTTP, checks every answer against the
// in-process index, and prints every metric by name and unit.
//
//	perfbench --workload serve-point --seed 1 --seconds 20 --trace 0
//
// With --trace 0 a run alternates one-second closed and open loops for
// --seconds and reports the end-to-end metrics. With
// --trace 1 it runs the open loop twice, untraced and then traced,
// and reports the per-layer breakdown; the spans are written as a
// Chrome trace under .bench_build/traces. The last line of standard
// output is the result object; the line before it records the
// environment. See README.md for the metrics and workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"
)

// config is one run's settings. The flags set the first four; the
// rest have fixed values outside the benchmark's own tests.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool

	records int    // size of dataset.Scaled(LA, records)
	setups  int    // set-ups per run; setup_s is their median
	root    string // checkout root: sources for the digest, .bench_build for traces
	// faulty, when set, wraps the first-hop handler; tests use it to
	// corrupt answers and check that the oracle counts them.
	faulty func(http.Handler) http.Handler
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	cfg := config{records: 20000, setups: 3, root: "."}
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: serve-point, serve-batch or route-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	flag.Parse()
	cfg.seconds = float64(seconds)
	cfg.trace = trace == 1
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	res, env, err := run(&cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	envLine, _ := json.Marshal(map[string]any{"env": env})
	resLine, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(envLine))
	fmt.Println(string(resLine))
}

// run sets the workload up cfg.setups times, keeping the last
// deployment, measures it and returns the result and environment.
func run(cfg *config) (*result, map[string]any, error) {
	w, ok := workloadByName(cfg.workload)
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	env := environment(cfg)
	rec := newRecorder()
	var (
		times []setupTimes
		st    *stack
	)
	for i := 0; i < cfg.setups; i++ {
		if st != nil {
			st.tearDown()
		}
		s, tm, err := setUp(cfg, w, rec)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		st = s
		times = append(times, tm)
	}
	defer st.tearDown()

	half := time.Duration(cfg.seconds * float64(time.Second) / 2)
	res := &result{Metrics: map[string]metric{}}
	count := func(ps ...*phase) {
		for _, p := range ps {
			res.Attempted += p.attempted
			res.Failed += p.failed
		}
	}
	traceOK := true // a traced run also needs a complete, well-nested trace
	if !cfg.trace {
		var closed, open []*phase
		n := max(1, int(cfg.seconds/(2*roundPhase.Seconds())))
		for r := 0; r < n; r++ {
			closed = append(closed, st.load.closedFor(half/time.Duration(n)))
			open = append(open, st.load.open(half/time.Duration(n), w.rate))
		}
		count(closed...)
		count(open...)
		endToEnd(res.Metrics, st, times, closed, open)
		// Nothing refers to the latency samples from here on, so the live
		// heap counts the deployment and the oracle, not the measurements.
		res.Metrics["live_heap_mb"] = metric{float64(liveHeapBytes()) / 1e6, "MB"}
	} else {
		before := readRuntime()
		base := st.load.open(half, w.rate)
		after := readRuntime()
		rec.on.Store(true)
		traced := st.load.open(half, w.rate)
		rec.on.Store(false)
		count(base, traced)
		bad, first, err := perLayer(res.Metrics, st, times, base, traced, before, after)
		if err != nil {
			return nil, nil, err
		}
		if bad > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %d invalid spans; first: %s\n", bad, first)
		}
		path := filepath.Join(cfg.root, ".bench_build", "traces", w.name+".json")
		if err := writeChromeTrace(path, rec.spans, env); err != nil {
			return nil, nil, fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans (%d dropped) written to %s\n", len(rec.spans), rec.dropped, path)
		traceOK = bad == 0 && rec.dropped == 0
	}
	finalErr := st.finalCheck()
	if finalErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: final check:", finalErr)
	}
	if msg := st.load.firstError(); msg != "" {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", msg)
	}
	res.Correct = finalErr == nil && st.load.mismatches.Load() == 0 && traceOK
	return res, env, nil
}

// finalCheck reads the full-box window stats from every server that
// took appends: its count must equal the built records plus those
// appended. Through the router, it must equal the built records.
func (st *stack) finalCheck() error {
	box := st.whole.Box()
	path := fmt.Sprintf("/v1/stats?task=%d&rect=%s,%s,%s,%s", st.whole.Tasks()[0],
		fmtFloat(box.MinLat), fmtFloat(box.MinLon), fmtFloat(box.MaxLat), fmtFloat(box.MaxLon))
	check := func(base string, want int) error {
		resp, err := st.load.clients[0].Get(base + path)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var got statsWire
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK || got.Count != want {
			return fmt.Errorf("%s: full-box count %d (status %d), want %d", base, got.Count, resp.StatusCode, want)
		}
		return nil
	}
	built, appended := len(st.built), int(st.ver.appended.Load())
	if !st.w.routed {
		return check(st.baseURL, built+appended)
	}
	if err := check(st.baseURL, built); err != nil {
		return err
	}
	return check(st.sideURL, built+appended)
}

// quantile returns the nearest-rank q-quantile of xs, sorting xs in
// place; 0 when xs is empty.
func quantile[T int64 | float64](xs []T, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return float64(xs[max(0, min(i, len(xs)-1))])
}

func ms(ns float64) float64 { return ns / 1e6 }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// An untraced run alternates closed and open loops of about roundPhase
// each, so a burst of load from outside the process lands on both
// kinds of loop alike, and the median over the closed rounds ignores it.
const roundPhase = time.Second

// p50 returns the median open-loop latency in ms, over all rounds, of
// the classes for which pick is true. Pooling the rounds keeps the
// median of a class with a small share steady.
func p50(open []*phase, pick func(opClass) bool) float64 {
	var xs []int64
	for _, p := range open {
		for c := opClass(0); c < numClasses; c++ {
			if pick(c) {
				xs = append(xs, p.lat[c]...)
			}
		}
	}
	return ms(quantile(xs, 0.5))
}

// endToEnd fills the metrics a user of the service sees. Throughput
// comes from the closed loops, latencies from the open loops.
func endToEnd(m map[string]metric, st *stack, times []setupTimes, closed, open []*phase) {
	var setup []float64
	for _, t := range times {
		setup = append(setup, t.total)
	}
	m["setup_s"] = metric{median(setup), "s"}
	tput := make([]float64, len(closed))
	for i, p := range closed {
		tput[i] = float64(p.ok()) / p.elapsed.Seconds()
	}
	m["throughput_ops_s"] = metric{median(tput), "1/s"}
	m["p50_ms"] = metric{p50(open, func(opClass) bool { return true }), "ms"}
	m["locate_p50_ms"] = metric{p50(open, func(c opClass) bool { return c == opLocate }), "ms"}
	m["batch_p50_ms"] = metric{p50(open, func(c opClass) bool { return c == opBatch }), "ms"}
	m["query_p50_ms"] = metric{p50(open, opClass.isQuery), "ms"}
	m["append_p50_ms"] = metric{p50(open, func(c opClass) bool { return c == opAppend }), "ms"}
	var attempted, failed int64
	for _, p := range append(closed, open...) {
		attempted += p.attempted
		failed += p.failed
	}
	m["success_ratio"] = metric{1 - float64(failed)/float64(attempted), "ratio"}
	m["ence"] = metric{st.report.ENCE, "ratio"}
	m["accuracy"] = metric{st.report.Accuracy, "ratio"}
}

// environment records what the numbers were measured on.
func environment(cfg *config) map[string]any {
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     gitCommit(cfg.root),
		"source":     sourceDigest(cfg.root),
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"records":    cfg.records,
	}
}
