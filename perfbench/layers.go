package main

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	fairindex "fairindex"
	"fairindex/internal/geo"
	"fairindex/internal/registry"
)

// Per-layer metrics come from the traced open loop. Spans give the
// time at each wrapped boundary; the time the program spends inside
// a handler on registry, kernel and maintenance calls is measured by
// replaying the op's public call on the same objects after the run.

// routerClasses are the op classes the router serves.
var routerClasses = []opClass{opLocate, opBatch, opKNN, opRange, opStats}

// kernelClasses maps each class with an index kernel to the metric
// stem of index.<stem>_p50_us.
var kernelClasses = []struct {
	class opClass
	stem  string
}{
	{opLocate, "locate"}, {opBatch, "locate_batch"}, {opKNN, "knn"},
	{opRange, "range"}, {opStats, "stats"}, {opScore, "score"},
}

// layerSchema lists every per-layer metric with its unit, in the
// order BENCHMARK.json declares them.
func layerSchema() [][2]string {
	var out [][2]string
	add := func(name, unit string) { out = append(out, [2]string{name, unit}) }
	for _, f := range []struct{ stem, unit string }{
		{"server.handler_p50_ms", "ms"}, {"server.self_p50_ms", "ms"},
		{"server.req_bytes", "bytes"}, {"server.resp_bytes", "bytes"},
	} {
		for c := opClass(0); c < numClasses; c++ {
			add(f.stem+"."+classNames[c], f.unit)
		}
	}
	add("server.transport_p50_ms", "ms")
	add("registry.lookup_p50_ns", "ns")
	for _, k := range kernelClasses {
		add("index."+k.stem+"_p50_us", "us")
	}
	for _, k := range kernelClasses {
		add("index.share."+classNames[k.class], "ratio")
	}
	add("maintain.append_p50_us", "us")
	add("maintain.appended", "count")
	for _, stem := range []string{"router.handler_p50_ms", "router.self_p50_ms"} {
		for _, c := range routerClasses {
			add(stem+"."+classNames[c], "ms")
		}
	}
	add("router.shard_rtt_p50_ms", "ms")
	add("router.shard_rtt_p99_ms", "ms")
	add("router.hop_p50_ms", "ms")
	for _, c := range routerClasses {
		add("router.shard_calls_per_op."+classNames[c], "count")
	}
	add("router.useful_call_ratio", "ratio")
	add("router.conn_new_ratio", "ratio")
	add("shard.route_p50_ns", "ns")
	add("shard.merge_p50_us", "us")
	for _, s := range []string{"dataset", "build", "partition", "train", "split", "warmup"} {
		add("setup."+s+"_s", "s")
	}
	add("runtime.allocs_per_op", "count")
	add("runtime.alloc_bytes_per_op", "bytes")
	add("runtime.cpu_ms_per_kop", "ms")
	add("runtime.gc_cycles", "count")
	add("runtime.gc_pause_p99_ms", "ms")
	add("loadgen.late_p50_ms", "ms")
	add("loadgen.late_p99_ms", "ms")
	add("loadgen.backlog_max", "count")
	add("loadgen.p99_ms", "ms")
	add("loadgen.failed_ratio", "ratio")
	add("trace.overhead_p50_ms", "ms")
	for c := opClass(0); c < numClasses; c++ {
		add("trace.client_p50_ms."+classNames[c], "ms")
	}
	for c := opClass(0); c < numClasses; c++ {
		add("trace.residual_ms."+classNames[c], "ms")
	}
	return out
}

// timeCall returns f's per-call time in nanoseconds: the median of a
// few rounds, each repeating f often enough to time reliably.
func timeCall(f func()) float64 {
	reps := 1
	for {
		t := time.Now()
		for i := 0; i < reps; i++ {
			f()
		}
		if time.Since(t) >= 10*time.Microsecond || reps >= 1<<14 {
			break
		}
		reps *= 4
	}
	rounds := make([]float64, 3)
	for r := range rounds {
		t := time.Now()
		for i := 0; i < reps; i++ {
			f()
		}
		rounds[r] = float64(time.Since(t)) / float64(reps)
	}
	return median(rounds)
}

// replayer times the public calls a handler makes, on the objects the
// handler used.
type replayer struct {
	st     *stack
	task   int
	mapper geo.Mapper
	kernel map[[2]int]float64 // (target, op index) → ns
	sink   int
}

func newReplayer(st *stack) *replayer {
	r := &replayer{st: st, task: st.whole.Tasks()[0], kernel: map[[2]int]float64{}}
	if st.manifest != nil {
		r.mapper, _ = geo.NewMapper(st.manifest.Grid, st.manifest.Box)
	}
	return r
}

// shardPoints returns the batch points a shard owns, routed the way
// the router routes them.
func (r *replayer) shardPoints(o *op, s int) (lats, lons []float64) {
	m := r.st.manifest
	for i := range o.lats {
		region := m.RegionOfCell(m.Grid.Index(r.mapper.CellOf(o.lats[i], o.lons[i])))
		if m.ShardOfRegion(region) == s {
			lats, lons = append(lats, o.lats[i]), append(lons, o.lons[i])
		}
	}
	return lats, lons
}

// kernelNs times the index calls a handler on target made for op oi:
// the whole-index call for a whole-index server, the call the router
// sends for a shard.
func (r *replayer) kernelNs(target int16, oi int) float64 {
	key := [2]int{int(target), oi}
	if v, ok := r.kernel[key]; ok {
		return v
	}
	o := &r.st.set.ops[oi]
	ix := r.st.targets[target]
	shardIdx := int(target) - targetShard
	var f func()
	switch o.class {
	case opLocate:
		f = func() { r.sink, _ = ix.Locate(o.lat, o.lon) }
	case opBatch:
		lats, lons := o.lats, o.lons
		if shardIdx >= 0 {
			lats, lons = r.shardPoints(o, shardIdx)
		}
		dst := make([]int, len(lats))
		f = func() { _ = ix.LocateBatchInto(dst, lats, lons) }
	case opKNN:
		if shardIdx >= 0 {
			f = func() { _, _ = ix.NearestRegionsSquared(o.lat, o.lon, knnK+1) }
		} else {
			f = func() { _, _ = ix.NearestRegions(o.lat, o.lon, knnK) }
		}
	case opRange:
		f = func() { _, _ = ix.RangeQuery(o.rect) }
	case opStats:
		all := r.st.w.statsAll && shardIdx < 0
		f = func() { _, _ = windowStats(ix, r.task, o, all) }
	case opScore:
		f = func() {
			r.sink, _ = ix.Locate(o.lat, o.lon)
			_, _ = ix.Score(o.rec, r.task)
		}
	default:
		return 0
	}
	v := timeCall(f)
	r.kernel[key] = v
	return v
}

// lookupNs times the registry resolution every data request makes.
func lookupNs(reg *registry.Registry) float64 {
	return timeCall(func() { _, _ = reg.Default() })
}

// appendReplays folds each traced append, in order, into a shadow
// copy of the index restored from its pristine bytes, timing each.
func appendReplays(st *stack, clients []*span) (map[uint64]float64, error) {
	shadow := new(fairindex.Index)
	if err := shadow.UnmarshalBinary(st.pristine); err != nil {
		return nil, err
	}
	out := map[uint64]float64{}
	for _, c := range clients {
		if c.class != opAppend {
			continue
		}
		o := st.opOf(c.op)
		t := time.Now()
		if _, err := shadow.AppendBatch(o.recs); err != nil {
			return nil, fmt.Errorf("append replay: %w", err)
		}
		out[c.op] = float64(time.Since(t))
	}
	return out, nil
}

// opIndex maps an op id back to its op in the pool.
func (st *stack) opIndex(id uint64) int { return int(st.set.seq[int64(id>>8)%seqLen]) }

func (st *stack) opOf(id uint64) *op { return &st.set.ops[st.opIndex(id)] }

// union returns the length of the union of the spans' intervals.
func union(spans []*span) int64 {
	iv := make([][2]int64, len(spans))
	for i, s := range spans {
		iv[i] = [2]int64{s.start, s.end}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64 = 0, 0, -1
	for _, v := range iv {
		if v[0] > curE {
			if curE >= curS {
				total += curE - curS
			}
			curS, curE = v[0], v[1]
		} else if v[1] > curE {
			curE = v[1]
		}
	}
	if curE >= curS {
		total += curE - curS
	}
	return total
}

// samples collects float observations by name.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

func (s samples) p(name string, q float64) float64 {
	return quantile(s[name], q)
}

func (s samples) mean(name string) float64 {
	xs := s[name]
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// perLayer fills the per-layer metrics from the traced phase and the
// replays, and returns the trace's structural violations.
func perLayer(m map[string]metric, st *stack, times []setupTimes, base, traced *phase, before, after runtimeSnap) (int, string, error) {
	st.rec.mu.Lock()
	spans := st.rec.spans
	st.rec.mu.Unlock()
	tree := buildTree(spans)
	bad, first := tree.validate()
	rp := newReplayer(st)
	lookup := lookupNs(st.reg)
	var clients []*span
	for _, c := range tree.clients {
		clients = append(clients, c)
	}
	sort.Slice(clients, func(i, j int) bool { return clients[i].start < clients[j].start })
	appendNs, err := appendReplays(st, clients)
	if err != nil {
		return bad, first, err
	}

	// kernel returns the replayed in-handler index (or maintenance) time
	// of a server span, in ns.
	kernel := func(s *span) float64 {
		if s.class == opAppend {
			return appendNs[s.op]
		}
		return rp.kernelNs(s.target, st.opIndex(s.op))
	}
	ns := samples{} // values in ns unless named otherwise
	var calls, useful, fresh int
	callsPer := map[opClass]int{}
	routerOps := map[opClass]int{}
	for i := range spans {
		s := &spans[i]
		dur := float64(s.end - s.start)
		cn := classNames[s.class]
		switch s.kind {
		case kindServer:
			k := kernel(s)
			ns.add("handler."+cn, dur)
			ns.add("self."+cn, dur-lookup-k)
			ns.add("req."+cn, float64(s.reqBytes))
			ns.add("resp."+cn, float64(s.respBytes))
			if s.class == opAppend {
				ns.add("append", k)
			} else {
				ns.add("index."+cn, k)
			}
		case kindRouter:
			cs := tree.children[s.id]
			ns.add("rhandler."+cn, dur)
			ns.add("rself."+cn, dur-float64(union(cs)))
			callsPer[s.class] += len(cs)
			routerOps[s.class]++
		case kindCall:
			calls++
			ns.add("rtt", dur)
			if kids := tree.children[s.id]; len(kids) == 1 {
				ns.add("hop", dur-float64(kids[0].end-kids[0].start))
				if s.status/100 == 2 {
					useful++
				}
			}
			if !s.reused {
				fresh++
			}
		}
	}

	// The blocking path of each op: client → first hop → (router: the
	// shard call that finished last → its shard handler) → registry and
	// kernel. Each component's p50 is summed and compared with the
	// client's p50; the difference is the residual.
	path := samples{}
	for _, c := range clients {
		cn := classNames[c.class]
		cdur := float64(c.end - c.start)
		path.add("client."+cn, cdur)
		hops := tree.children[c.op]
		if len(hops) != 1 {
			continue
		}
		h := hops[0]
		hdur := float64(h.end - h.start)
		ns.add("transport", cdur-hdur)
		path.add(cn+".transport", cdur-hdur)
		srv := h
		if h.kind == kindRouter {
			cs := tree.children[h.id]
			if len(cs) == 0 {
				continue
			}
			crit := cs[0]
			for _, x := range cs {
				if x.end > crit.end {
					crit = x
				}
			}
			kids := tree.children[crit.id]
			if len(kids) != 1 {
				continue
			}
			srv = kids[0]
			path.add(cn+".router_self", hdur-float64(union(cs)))
			path.add(cn+".hop", float64(crit.end-crit.start)-float64(srv.end-srv.start))
		}
		k := kernel(srv)
		path.add(cn+".server_self", float64(srv.end-srv.start)-lookup-k)
		path.add(cn+".registry", lookup)
		path.add(cn+".kernel", k)
	}

	if st.manifest != nil {
		shardReplays(ns, st, rp, clients)
	}

	units := map[string]string{}
	for _, e := range layerSchema() {
		units[e[0]] = e[1]
	}
	set := func(name string, v float64) { m[name] = metric{v, units[name]} }
	for c := opClass(0); c < numClasses; c++ {
		cn := classNames[c]
		if len(ns["handler."+cn]) > 0 {
			set("server.handler_p50_ms."+cn, ms(ns.p("handler."+cn, 0.5)))
			set("server.self_p50_ms."+cn, ms(ns.p("self."+cn, 0.5)))
			set("server.req_bytes."+cn, ns.mean("req."+cn))
			set("server.resp_bytes."+cn, ns.mean("resp."+cn))
		}
		if len(path["client."+cn]) > 0 {
			client := path.p("client."+cn, 0.5)
			set("trace.client_p50_ms."+cn, ms(client))
			var sum float64
			for _, comp := range []string{"transport", "router_self", "hop", "server_self", "registry", "kernel"} {
				sum += path.p(cn+"."+comp, 0.5)
			}
			set("trace.residual_ms."+cn, ms(client-sum))
		}
	}
	if len(ns["transport"]) > 0 {
		set("server.transport_p50_ms", ms(ns.p("transport", 0.5)))
	}
	set("registry.lookup_p50_ns", lookup)
	for _, k := range kernelClasses {
		cn := classNames[k.class]
		if len(ns["index."+cn]) == 0 {
			continue
		}
		set("index."+k.stem+"_p50_us", ns.p("index."+cn, 0.5)/1e3)
		if client := path.p("client."+cn, 0.5); client > 0 {
			set("index.share."+cn, ns.p("index."+cn, 0.5)/client)
		}
	}
	if len(ns["append"]) > 0 {
		set("maintain.append_p50_us", ns.p("append", 0.5)/1e3)
		set("maintain.appended", float64(st.ver.appended.Load()))
	}
	for _, c := range routerClasses {
		cn := classNames[c]
		if routerOps[c] == 0 {
			continue
		}
		set("router.handler_p50_ms."+cn, ms(ns.p("rhandler."+cn, 0.5)))
		set("router.self_p50_ms."+cn, ms(ns.p("rself."+cn, 0.5)))
		set("router.shard_calls_per_op."+cn, float64(callsPer[c])/float64(routerOps[c]))
	}
	if calls > 0 {
		set("router.shard_rtt_p50_ms", ms(ns.p("rtt", 0.5)))
		set("router.shard_rtt_p99_ms", ms(ns.p("rtt", 0.99)))
		set("router.hop_p50_ms", ms(ns.p("hop", 0.5)))
		set("router.useful_call_ratio", float64(useful)/float64(calls))
		set("router.conn_new_ratio", float64(fresh)/float64(calls))
	}
	if len(ns["route"]) > 0 {
		set("shard.route_p50_ns", ns.p("route", 0.5))
	}
	if len(ns["merge"]) > 0 {
		set("shard.merge_p50_us", ns.p("merge", 0.5)/1e3)
	}

	stage := func(f func(setupTimes) float64) float64 {
		var xs []float64
		for _, t := range times {
			xs = append(xs, f(t))
		}
		return median(xs)
	}
	set("setup.dataset_s", stage(func(t setupTimes) float64 { return t.dataset }))
	set("setup.build_s", stage(func(t setupTimes) float64 { return t.build }))
	set("setup.partition_s", stage(func(t setupTimes) float64 { return t.partition }))
	set("setup.train_s", stage(func(t setupTimes) float64 { return t.train }))
	if st.manifest != nil {
		set("setup.split_s", stage(func(t setupTimes) float64 { return t.split }))
	}
	set("setup.warmup_s", stage(func(t setupTimes) float64 { return t.warmup }))

	n := float64(base.attempted)
	set("runtime.allocs_per_op", float64(after.allocs-before.allocs)/n)
	set("runtime.alloc_bytes_per_op", float64(after.allocBytes-before.allocBytes)/n)
	set("runtime.cpu_ms_per_kop", ms(float64(after.cpu-before.cpu))/(n/1000))
	set("runtime.gc_cycles", float64(after.gcCycles-before.gcCycles))
	set("runtime.gc_pause_p99_ms", pauseQuantile(before, after, 0.99)*1e3)
	set("loadgen.late_p50_ms", ms(quantile(base.late, 0.5)))
	set("loadgen.late_p99_ms", ms(quantile(base.late, 0.99)))
	set("loadgen.backlog_max", float64(base.backlogMax))
	set("loadgen.p99_ms", ms(quantile(base.all(), 0.99)))
	set("loadgen.failed_ratio", float64(base.failed+traced.failed)/float64(base.attempted+traced.attempted))
	set("trace.overhead_p50_ms", ms(quantile(traced.all(), 0.5)-quantile(base.all(), 0.5)))

	var absent []string
	for _, e := range layerSchema() {
		if _, ok := m[e[0]]; !ok {
			absent = append(absent, e[0])
			m[e[0]] = metric{0, e[1]}
		}
	}
	if len(absent) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: not on %s's path, reported as 0: %s\n", st.w.name, strings.Join(absent, ", "))
	}
	return bad, first, nil
}

// shardReplays times the router's own routing and merge kernels for
// the traced routed ops: RegionOfCell and ShardOfRegion per located
// point, and MergeWindowStats over the rows a stats fan-out gathers.
func shardReplays(ns samples, st *stack, rp *replayer, clients []*span) {
	m := st.manifest
	seen := map[int]bool{}
	for _, c := range clients {
		oi := st.opIndex(c.op)
		o := &st.set.ops[oi]
		if o.side || seen[oi] {
			continue
		}
		seen[oi] = true
		switch o.class {
		case opLocate, opBatch:
			lats, lons := o.lats, o.lons
			if o.class == opLocate {
				lats, lons = []float64{o.lat}, []float64{o.lon}
			}
			per := timeCall(func() {
				for i := range lats {
					region := m.RegionOfCell(m.Grid.Index(rp.mapper.CellOf(lats[i], lons[i])))
					rp.sink = m.ShardOfRegion(region)
				}
			}) / float64(len(lats))
			ns.add("route", per)
		case opStats:
			ws, err := windowStats(st.whole, rp.task, o, false)
			if err != nil {
				continue
			}
			rows := make([]fairindex.RegionStat, len(ws.Regions))
			for i, r := range ws.Regions {
				rows[i] = fairindex.RegionStat{Region: r.Region, Count: r.Count, SumScore: r.SumScore, SumLabel: r.SumLabel}
			}
			ns.add("merge", timeCall(func() { _, _ = fairindex.MergeWindowStats(rp.task, rows) }))
		}
	}
}
