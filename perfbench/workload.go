package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
	"strings"

	fairindex "fairindex"
)

// opClass is the kind of one benchmark operation.
type opClass uint8

const (
	opLocate opClass = iota // GET /v1/locate, one point
	opBatch                 // POST /v1/locate_batch
	opKNN                   // GET /v1/knn, k = 8
	opRange                 // POST /v1/range
	opStats                 // window stats over a rectangle
	opScore                 // POST /v1/score
	opAppend                // POST /v1/append of held-out records
	numClasses
)

var classNames = [numClasses + 1]string{"locate", "batch", "knn", "range", "stats", "score", "append", "other"}

// isQuery reports whether a class counts toward query_p50_ms.
func (c opClass) isQuery() bool { return c == opKNN || c == opRange || c == opStats }

// knnK is the k of every kNN op.
const knnK = 8

// workload is one traffic mix and the serving stack it drives. Each
// mix carries a small share of every op class its stack serves, so
// every end-to-end per-class latency is measured on every workload;
// the dominant classes are the ones the workload exists to stress.
type workload struct {
	name   string
	routed bool    // internal/router over shard.Split shards, 2 replicas each
	rate   float64 // open-loop arrival rate in ops/s, fixed per workload
	mix    [numClasses]int
	batch  int // points per locate_batch
	append int // records per append

	statsRegions int  // regions a stats window covers, at least
	statsGET     bool // GET form (no metrics, no sums)
	statsAll     bool // POST with every registered metric and raw sums
	rangeRegions int  // regions a range window covers, at least
}

// The open-loop rates are about a third of each workload's closed-loop
// capacity on a 2-vCPU host; BENCHMARK.json states the same numbers
// and a test keeps the two in step.
var workloads = []workload{
	{
		// One whole-index server, tiny bodies, no hop: per-request HTTP,
		// resolve and encode costs dominate.
		name: "serve-point", rate: 9000,
		mix:   [numClasses]int{opLocate: 64, opKNN: 10, opStats: 10, opScore: 10, opRange: 2, opBatch: 2, opAppend: 2},
		batch: 10, append: 1,
		statsRegions: 4, statsGET: true, rangeRegions: 4,
	},
	{
		// The same server under bulk bodies: JSON decode and encode
		// dominate, and appends fold stats beside large stats reads.
		name: "serve-batch", rate: 700,
		mix:   [numClasses]int{opBatch: 120, opStats: 52, opAppend: 18, opLocate: 6, opKNN: 2, opRange: 1, opScore: 1},
		batch: 1000, append: 50,
		statsRegions: 96, statsAll: true, rangeRegions: 16,
	},
	{
		// The router over 4 shards × 2 replicas: the hop dominates.
		// Locate touches one shard; kNN, range and stats fan out to all.
		// Score and append are whole-index operations the router does
		// not serve, so their small share goes to a whole-index server
		// beside it.
		name: "route-mixed", routed: true, rate: 1800,
		mix:   [numClasses]int{opLocate: 72, opBatch: 8, opKNN: 6, opRange: 6, opStats: 6, opScore: 1, opAppend: 1},
		batch: 100, append: 10,
		statsRegions: 16, statsGET: true, rangeRegions: 16,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Pool sizes per class. Ops are drawn from pools built at set-up, so
// request bodies and oracle answers are ready before timing starts.
const (
	poolPoints  = 4096 // locate, kNN, score
	poolBatches = 64
	poolRects   = 32 // stats windows; their expectations are refreshed per append
	poolRanges  = 256
	seqLen      = 1 << 16
)

// op is one prepared request plus what the oracle and the replays
// need to know about it.
type op struct {
	class  opClass
	side   bool // route-mixed: sent to the whole-index side server
	method string
	path   string
	body   []byte
	slot   int // index within its class pool

	lat, lon   float64
	lats, lons []float64
	rect       fairindex.BBox
	rec        fairindex.Record
	recs       []fairindex.Record
	want       any // decoded expectation for immutable classes
}

// opSet is a workload's prepared inputs: the op pool and the
// seeded sequence every loop walks through.
type opSet struct {
	ops   []op
	seq   []int32
	rects []int // op indexes of the stats pool, by slot
}

// zipfPoints draws record coordinates with a Zipf skew over a
// seed-dependent ranking of the records.
type zipfPoints struct {
	recs []fairindex.Record
	perm []int
	z    *rand.Zipf
}

func newZipfPoints(rng *rand.Rand, recs []fairindex.Record) *zipfPoints {
	return &zipfPoints{
		recs: recs,
		perm: rng.Perm(len(recs)),
		z:    rand.NewZipf(rng, 1.1, 50, uint64(len(recs)-1)),
	}
}

func (z *zipfPoints) next() *fairindex.Record { return &z.recs[z.perm[z.z.Uint64()]] }

func fmtFloat(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// windowAround returns the smallest square window, in steps of 15%,
// centred on r that covers at least k regions. Sizing windows by
// region count rather than by degrees keeps a window's work nearly
// the same wherever the seed centres it.
func windowAround(ix *fairindex.Index, r *fairindex.Record, k int) (fairindex.BBox, error) {
	for half := 0.002; ; half *= 1.15 {
		q := fairindex.BBox{MinLat: r.Lat - half, MinLon: r.Lon - half, MaxLat: r.Lat + half, MaxLon: r.Lon + half}
		ovs, err := ix.RangeQuery(q)
		if err != nil || len(ovs) >= min(k, ix.NumRegions()) {
			return q, err
		}
	}
}

// buildOps prepares a workload's op pool from the seed: Zipf-skewed
// points over the built records, held-out records for appends, and
// each immutable op's expected answer from the in-process oracle
// index.
func buildOps(w workload, seed int64, oracle *fairindex.Index, built, held []fairindex.Record) (*opSet, error) {
	rng := rand.New(rand.NewSource(seed))
	pts := newZipfPoints(rng, built)
	set := &opSet{}
	task := oracle.Tasks()[0]
	pools := make([][]int32, numClasses)
	add := func(o op) {
		o.slot = len(pools[o.class])
		pools[o.class] = append(pools[o.class], int32(len(set.ops)))
		set.ops = append(set.ops, o)
	}
	for c := opClass(0); c < numClasses; c++ {
		if w.mix[c] == 0 {
			continue
		}
		var err error
		switch c {
		case opLocate:
			for i := 0; i < poolPoints && err == nil; i++ {
				p := pts.next()
				var region int
				region, err = oracle.Locate(p.Lat, p.Lon)
				add(op{class: c, method: "GET", lat: p.Lat, lon: p.Lon, want: region,
					path: "/v1/locate?lat=" + fmtFloat(p.Lat) + "&lon=" + fmtFloat(p.Lon)})
			}
		case opKNN:
			for i := 0; i < poolPoints && err == nil; i++ {
				p := pts.next()
				var nd []fairindex.RegionDistance
				nd, err = oracle.NearestRegions(p.Lat, p.Lon, knnK)
				add(op{class: c, method: "GET", lat: p.Lat, lon: p.Lon, want: nd,
					path: fmt.Sprintf("/v1/knn?lat=%s&lon=%s&k=%d", fmtFloat(p.Lat), fmtFloat(p.Lon), knnK)})
			}
		case opScore:
			for i := 0; i < poolPoints && err == nil; i++ {
				p := pts.next()
				var want scoreWant
				if want.region, err = oracle.Locate(p.Lat, p.Lon); err != nil {
					break
				}
				rec := fairindex.Record{Lat: p.Lat, Lon: p.Lon, X: p.X}
				if want.score, err = oracle.Score(rec, task); err != nil {
					break
				}
				body, _ := json.Marshal(map[string]any{"task": task, "lat": p.Lat, "lon": p.Lon, "features": p.X})
				add(op{class: c, method: "POST", path: "/v1/score", body: body, side: w.routed,
					lat: p.Lat, lon: p.Lon, rec: rec, want: want})
			}
		case opBatch:
			for i := 0; i < poolBatches && err == nil; i++ {
				lats, lons := make([]float64, w.batch), make([]float64, w.batch)
				for j := range lats {
					p := pts.next()
					lats[j], lons[j] = p.Lat, p.Lon
				}
				var regions []int
				regions, err = oracle.LocateBatch(lats, lons)
				body, _ := json.Marshal(map[string]any{"lats": lats, "lons": lons})
				add(op{class: c, method: "POST", path: "/v1/locate_batch", body: body,
					lats: lats, lons: lons, want: regions})
			}
		case opRange:
			for i := 0; i < poolRanges && err == nil; i++ {
				var q fairindex.BBox
				if q, err = windowAround(oracle, pts.next(), w.rangeRegions); err != nil {
					break
				}
				var ovs []fairindex.RegionOverlap
				ovs, err = oracle.RangeQuery(q)
				body, _ := json.Marshal(map[string]float64{"min_lat": q.MinLat, "min_lon": q.MinLon, "max_lat": q.MaxLat, "max_lon": q.MaxLon})
				add(op{class: c, method: "POST", path: "/v1/range", body: body, rect: q, want: ovs})
			}
		case opStats:
			for i := 0; i < poolRects && err == nil; i++ {
				var q fairindex.BBox
				if q, err = windowAround(oracle, pts.next(), w.statsRegions); err != nil {
					break
				}
				o := op{class: c, rect: q}
				if w.statsGET {
					o.method = "GET"
					o.path = fmt.Sprintf("/v1/stats?task=%d&rect=%s", task, url.QueryEscape(strings.Join(
						[]string{fmtFloat(q.MinLat), fmtFloat(q.MinLon), fmtFloat(q.MaxLat), fmtFloat(q.MaxLon)}, ",")))
				} else {
					o.method, o.path = "POST", "/v1/stats"
					o.body, _ = json.Marshal(map[string]any{"task": task, "metrics": []string{}, "sums": true,
						"rect": map[string]float64{"min_lat": q.MinLat, "min_lon": q.MinLon, "max_lat": q.MaxLat, "max_lon": q.MaxLon}})
				}
				set.rects = append(set.rects, len(set.ops))
				add(o)
			}
		case opAppend:
			for start := 0; start+w.append <= len(held); start += w.append {
				recs := held[start : start+w.append]
				wire := make([]map[string]any, len(recs))
				for j, r := range recs {
					wire[j] = map[string]any{"id": r.ID, "lat": r.Lat, "lon": r.Lon, "features": r.X, "labels": r.Labels}
				}
				body, _ := json.Marshal(map[string]any{"records": wire})
				add(op{class: c, method: "POST", path: "/v1/append", body: body, side: w.routed, recs: recs})
			}
		}
		if err != nil {
			return nil, fmt.Errorf("oracle for %s: %w", classNames[c], err)
		}
	}
	total := 0
	for _, m := range w.mix {
		total += m
	}
	set.seq = make([]int32, seqLen)
	for i := range set.seq {
		pick := rng.Intn(total)
		c := opClass(0)
		for ; pick >= w.mix[c]; c++ {
			pick -= w.mix[c]
		}
		pool := pools[c]
		set.seq[i] = pool[rng.Intn(len(pool))]
	}
	return set, nil
}
