package main

import (
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/url"
	"os"
	"sync"
	"time"

	fairindex "fairindex"
	"fairindex/internal/dataset"
	"fairindex/internal/geo"
	"fairindex/internal/registry"
	"fairindex/internal/router"
	"fairindex/internal/server"
	"fairindex/internal/shard"
)

// Index recipe: Fair KD, height 8, on a 64×64 grid, built from
// dataset.Scaled(LA, records). The held-out records appends send come
// from a second city drawn with another generator seed.
const (
	heldOut   = 2000
	numShards = 4
	replicas  = 2
	buildSeed = 11
)

// Span target slots: which index a handler serves, for replays.
const (
	targetWhole = 0
	targetSide  = 1
	targetShard = 2 // + shard number
)

// setupTimes are one set-up's stage durations in seconds.
type setupTimes struct {
	dataset, build, partition, train, split, warmup, total float64
}

// stack is one workload's running deployment: the whole index (the
// oracle, and what the serve workloads serve), its shards and the
// listeners in front of them.
type stack struct {
	w        workload
	rec      *recorder
	built    []fairindex.Record
	whole    *fairindex.Index
	side     *fairindex.Index // route-mixed: whole-index copy taking score and append
	manifest *shard.Manifest
	pristine []byte               // whole index before any append, for the append replay
	report   fairindex.TaskResult // build-time report of task 0, before any append
	reg      *registry.Registry   // registry of the server holding the whole index
	targets  []*fairindex.Index   // by span target slot
	hosts    map[string]int16     // shard backend host → span target
	baseURL  string               // server or router
	sideURL  string
	servers  []*http.Server
	done     sync.WaitGroup
	set      *opSet
	ver      *verifier
	load     *load
}

// setUp builds and starts one deployment of the workload and warms it
// up. Every stage is timed; the total runs until the first measured
// op could be sent.
func setUp(cfg *config, w workload, rec *recorder) (*stack, setupTimes, error) {
	var tm setupTimes
	start := time.Now()
	lap := func() float64 {
		now := time.Now()
		d := now.Sub(start).Seconds()
		start = now
		return d
	}
	t0 := start
	st := &stack{w: w, rec: rec, hosts: map[string]int16{}}
	fail := func(err error) (*stack, setupTimes, error) {
		st.tearDown()
		return nil, tm, err
	}

	grid := geo.MustGrid(64, 64)
	spec := dataset.Scaled(dataset.LA(), cfg.records)
	ds, err := dataset.Generate(spec, grid)
	if err != nil {
		return fail(err)
	}
	heldSpec := spec
	heldSpec.NumRecords, heldSpec.Seed = heldOut, spec.Seed+1
	held, err := dataset.Generate(heldSpec, grid)
	if err != nil {
		return fail(err)
	}
	st.built = ds.Records
	tm.dataset = lap()

	st.whole, err = fairindex.Build(ds, fairindex.WithMethod(fairindex.MethodFairKD),
		fairindex.WithHeight(8), fairindex.WithSeed(buildSeed))
	if err != nil {
		return fail(err)
	}
	tm.build = lap()
	tm.partition = st.whole.BuildTime().Seconds()
	tm.train = st.whole.TrainTime().Seconds()
	if st.pristine, err = st.whole.MarshalBinary(); err != nil {
		return fail(err)
	}
	if st.report, err = st.whole.Report(st.whole.Tasks()[0]); err != nil {
		return fail(err)
	}
	st.targets = []*fairindex.Index{st.whole, st.whole}

	var shards []*fairindex.Index
	if w.routed {
		if st.manifest, shards, err = shard.Split(st.whole, numShards); err != nil {
			return fail(err)
		}
		st.side = new(fairindex.Index)
		if err := st.side.UnmarshalBinary(st.pristine); err != nil {
			return fail(err)
		}
		st.targets[targetSide] = st.side
		st.targets = append(st.targets, shards...)
		tm.split = lap()
	}

	logger := log.New(os.Stderr, "perfbench: ", 0)
	// Untraced runs serve the program's handlers bare; traced runs wrap
	// each one, and the router's transport, in a span recorder.
	wrap := func(kind uint8, target int16, h http.Handler) http.Handler {
		if !cfg.trace {
			return h
		}
		return &traceHandler{rec: rec, kind: kind, target: target, next: h}
	}
	if !w.routed {
		srv := server.New(st.whole, server.WithLogger(logger))
		st.reg = srv.Registry()
		h := wrap(kindServer, targetWhole, srv)
		if cfg.faulty != nil {
			h = cfg.faulty(h)
		}
		if st.baseURL, err = st.listen(h); err != nil {
			return fail(err)
		}
	} else {
		var backends []router.Backend
		for s, sx := range shards {
			b := router.Backend{Name: st.manifest.Shards[s].Name}
			srv := server.New(sx, server.WithLogger(logger))
			for r := 0; r < replicas; r++ {
				u, err := st.listen(wrap(kindServer, int16(targetShard+s), srv))
				if err != nil {
					return fail(err)
				}
				pu, _ := url.Parse(u)
				st.hosts[pu.Host] = int16(targetShard + s)
				b.URLs = append(b.URLs, u)
			}
			backends = append(backends, b)
		}
		opts := []router.Option{router.WithLogger(logger)}
		if cfg.trace {
			tt := &traceTransport{rec: rec, base: http.DefaultTransport, shardOf: func(host string) int16 { return st.hosts[host] }}
			opts = append(opts, router.WithClient(&http.Client{Transport: tt}))
		}
		rt, err := router.New(st.manifest, backends, opts...)
		if err != nil {
			return fail(err)
		}
		h := wrap(kindRouter, targetWhole, rt)
		if cfg.faulty != nil {
			h = cfg.faulty(h)
		}
		if st.baseURL, err = st.listen(h); err != nil {
			return fail(err)
		}
		side := server.New(st.side, server.WithLogger(logger))
		st.reg = side.Registry()
		if st.sideURL, err = st.listen(wrap(kindServer, targetSide, side)); err != nil {
			return fail(err)
		}
	}

	if st.set, err = buildOps(w, cfg.seed, st.whole, st.built, held.Records); err != nil {
		return fail(err)
	}
	if st.ver, err = newVerifier(w, st.set, st.whole, !w.routed); err != nil {
		return fail(err)
	}
	st.load = newLoad(st)
	lap()
	if err := st.warmUp(); err != nil {
		return fail(err)
	}
	tm.warmup = lap()
	tm.total = time.Since(t0).Seconds()
	return st, tm, nil
}

// listen serves h on a fresh loopback port.
func (st *stack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	st.servers = append(st.servers, srv)
	st.done.Add(1)
	go func() {
		defer st.done.Done()
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("perfbench: serve: %v", err)
		}
	}()
	return "http://" + ln.Addr().String(), nil
}

// warmUpOps is how many ops warm a deployment up: a tenth of a second
// of its open-loop traffic, at least 64.
func warmUpOps(w workload) int { return int(w.rate/10) + 64 }

// warmUp sends the first ops of the sequence through a closed loop,
// filling connection pools and caches. Its answers are checked too.
func (st *stack) warmUp() error {
	res := st.load.closedCount(warmUpOps(st.w))
	if res.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d ops failed: %s", res.failed, res.attempted, st.load.firstError())
	}
	return nil
}

// tearDown stops every listener and waits for its Serve loop to end.
func (st *stack) tearDown() {
	if st.load != nil {
		st.load.close()
	}
	for _, srv := range st.servers {
		srv.Close()
	}
	st.done.Wait()
	st.servers = nil
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}
