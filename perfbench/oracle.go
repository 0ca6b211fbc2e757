package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	fairindex "fairindex"
)

// The benchmark decodes answers into its own wire types, so the
// oracle does not depend on how the program encodes them beyond the
// documented JSON field names. Nullable floats decode NaN as nil.

type locateWire struct {
	Region int `json:"region"`
}

type batchWire struct {
	Regions []int  `json:"regions"`
	Invalid int    `json:"invalid"`
	Error   string `json:"error"`
}

type knnWire struct {
	Neighbors []struct {
		Region   int     `json:"region"`
		Distance float64 `json:"distance"`
	} `json:"neighbors"`
}

type rangeWire struct {
	Regions []struct {
		Region   int     `json:"region"`
		Cells    int     `json:"cells"`
		Fraction float64 `json:"fraction"`
	} `json:"regions"`
	Count int `json:"count"`
}

type scoreWire struct {
	Score  float64 `json:"score"`
	Region int     `json:"region"`
}

type scoreWant struct {
	score  float64
	region int
}

type statsWire struct {
	Task     int                 `json:"task"`
	Count    int                 `json:"count"`
	MeanConf *float64            `json:"mean_conf"`
	PosRate  *float64            `json:"pos_rate"`
	Miscal   *float64            `json:"miscal"`
	CalRatio *float64            `json:"cal_ratio"`
	ENCE     *float64            `json:"ence"`
	Metrics  map[string]*float64 `json:"metrics"`
	Regions  []struct {
		Region   int      `json:"region"`
		Count    int      `json:"count"`
		MeanConf *float64 `json:"mean_conf"`
		PosRate  *float64 `json:"pos_rate"`
		Miscal   *float64 `json:"miscal"`
		CalRatio *float64 `json:"cal_ratio"`
		SumScore *float64 `json:"sum_score"`
		SumLabel *float64 `json:"sum_label"`
	} `json:"regions"`
	Partial bool `json:"partial"`
}

type appendWire struct {
	Appended int `json:"appended"`
	Total    int `json:"total"`
}

// sameFloat compares a decoded nullable float with the oracle's value
// bit for bit; null stands for a non-finite value.
func sameFloat(got *float64, want float64) bool {
	if got == nil {
		return math.IsNaN(want) || math.IsInf(want, 0)
	}
	return math.Float64bits(*got) == math.Float64bits(want)
}

// checkImmutable verifies the answer of an op whose result appends do
// not change (everything but stats and append) against the oracle's
// precomputed value.
func checkImmutable(o *op, body []byte) error {
	switch want := o.want.(type) {
	case int:
		var got locateWire
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if got.Region != want {
			return fmt.Errorf("locate: region %d, oracle %d", got.Region, want)
		}
	case []int:
		var got batchWire
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if got.Invalid != 0 || got.Error != "" || len(got.Regions) != len(want) {
			return fmt.Errorf("locate_batch: %d regions (%d invalid), oracle %d", len(got.Regions), got.Invalid, len(want))
		}
		for i := range want {
			if got.Regions[i] != want[i] {
				return fmt.Errorf("locate_batch point %d: region %d, oracle %d", i, got.Regions[i], want[i])
			}
		}
	case []fairindex.RegionDistance:
		var got knnWire
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if len(got.Neighbors) != len(want) {
			return fmt.Errorf("knn: %d neighbors, oracle %d", len(got.Neighbors), len(want))
		}
		for i, n := range got.Neighbors {
			if n.Region != want[i].Region || math.Float64bits(n.Distance) != math.Float64bits(want[i].Distance) {
				return fmt.Errorf("knn neighbor %d: %v, oracle %v", i, n, want[i])
			}
		}
	case []fairindex.RegionOverlap:
		var got rangeWire
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if got.Count != len(want) || len(got.Regions) != len(want) {
			return fmt.Errorf("range: %d regions, oracle %d", len(got.Regions), len(want))
		}
		for i, r := range got.Regions {
			if r.Region != want[i].Region || r.Cells != want[i].Cells ||
				math.Float64bits(r.Fraction) != math.Float64bits(want[i].Fraction) {
				return fmt.Errorf("range entry %d: %v, oracle %v", i, r, want[i])
			}
		}
	case scoreWant:
		var got scoreWire
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if got.Region != want.region || math.Float64bits(got.Score) != math.Float64bits(want.score) {
			return fmt.Errorf("score: (%v, %d), oracle (%v, %d)", got.Score, got.Region, want.score, want.region)
		}
	default:
		return fmt.Errorf("no oracle for %s", classNames[o.class])
	}
	return nil
}

// checkStats compares a decoded stats answer with the oracle's window
// statistics; sums says whether raw per-region sums were requested.
func checkStats(got *statsWire, want *fairindex.WindowStats, sums bool) error {
	if got.Partial {
		return fmt.Errorf("stats: partial answer")
	}
	if got.Task != want.Task || got.Count != want.Count || len(got.Regions) != len(want.Regions) ||
		!sameFloat(got.MeanConf, want.MeanConf) || !sameFloat(got.PosRate, want.PosRate) ||
		!sameFloat(got.Miscal, want.Miscal) || !sameFloat(got.CalRatio, want.CalRatio) ||
		!sameFloat(got.ENCE, want.ENCE) {
		return fmt.Errorf("stats: window aggregate differs (count %d, oracle %d)", got.Count, want.Count)
	}
	if len(got.Metrics) != len(want.Metrics) {
		return fmt.Errorf("stats: %d metrics, oracle %d", len(got.Metrics), len(want.Metrics))
	}
	for name, v := range want.Metrics {
		if g, ok := got.Metrics[name]; !ok || !sameFloat(g, v) {
			return fmt.Errorf("stats: metric %q differs", name)
		}
	}
	for i, r := range got.Regions {
		w := &want.Regions[i]
		if r.Region != w.Region || r.Count != w.Count || !sameFloat(r.MeanConf, w.MeanConf) ||
			!sameFloat(r.PosRate, w.PosRate) || !sameFloat(r.Miscal, w.Miscal) || !sameFloat(r.CalRatio, w.CalRatio) {
			return fmt.Errorf("stats: region %d differs", w.Region)
		}
		if sums != (r.SumScore != nil) || (sums && (!sameFloat(r.SumScore, w.SumScore) || !sameFloat(r.SumLabel, w.SumLabel))) {
			return fmt.Errorf("stats: region %d sums differ", w.Region)
		}
	}
	return nil
}

// verifier checks every answer against the in-process oracle. Answers
// that appends cannot change are compared with precomputed values;
// stats answers are compared with the window statistics of the
// append state they could have seen. Appends run one at a time (the
// index serializes them anyway), and after each one the verifier
// records the oracle's statistics for every stats window, so a stats
// answer must match one of the states between its send and its reply.
type verifier struct {
	w       workload
	set     *opSet
	statsIx *fairindex.Index // index whose stats are served
	live    bool             // appends land in statsIx, so stats change
	task    int

	// verified caches, per op, the last response bytes that passed a
	// full check; an identical reply needs no second decode.
	verified []atomic.Pointer[cachedReply]

	appendMu sync.Mutex   // one append in flight at a time
	version  atomic.Int64 // appends applied and acknowledged
	appended atomic.Int64 // records appended
	mu       sync.Mutex
	states   map[int64][]fairindex.WindowStats // version → stats per rect slot
}

type cachedReply struct {
	version int64
	body    []byte
}

// statsHistory bounds how many append states the verifier remembers;
// appends run one at a time, so a stats reply spans a handful at most.
const statsHistory = 8

func newVerifier(w workload, set *opSet, statsIx *fairindex.Index, live bool) (*verifier, error) {
	v := &verifier{w: w, set: set, statsIx: statsIx, live: live, task: statsIx.Tasks()[0],
		verified: make([]atomic.Pointer[cachedReply], len(set.ops)), states: map[int64][]fairindex.WindowStats{}}
	if len(set.rects) > 0 {
		st, err := v.snapshot()
		if err != nil {
			return nil, err
		}
		v.states[0] = st
	}
	return v, nil
}

// windowStats is the oracle for one stats op, mirroring what the
// request asks for: the window resolved by RangeQuery, then the stats
// with every registered metric when the op requests them.
func windowStats(ix *fairindex.Index, task int, o *op, all bool) (fairindex.WindowStats, error) {
	ovs, err := ix.RangeQuery(o.rect)
	if err != nil {
		return fairindex.WindowStats{}, err
	}
	regions := make([]int, len(ovs))
	for i, ov := range ovs {
		regions[i] = ov.Region
	}
	if all {
		return ix.GroupStatsMetrics(task, regions)
	}
	return ix.GroupStats(task, regions)
}

func (v *verifier) snapshot() ([]fairindex.WindowStats, error) {
	st := make([]fairindex.WindowStats, len(v.set.rects))
	for slot, oi := range v.set.rects {
		ws, err := windowStats(v.statsIx, v.task, &v.set.ops[oi], v.w.statsAll)
		if err != nil {
			return nil, err
		}
		st[slot] = ws
	}
	return st, nil
}

// begin returns the append state current when an op is sent.
func (v *verifier) begin() int64 { return v.version.Load() }

// check verifies one 2xx answer. lo is the state from begin.
func (v *verifier) check(oi int, lo int64, body []byte) error {
	o := &v.set.ops[oi]
	if o.class == opAppend {
		return nil // checked in appendDone, under the append lane
	}
	if c := v.verified[oi].Load(); c != nil && bytes.Equal(c.body, body) && (o.class != opStats || c.version >= lo) {
		return nil
	}
	if o.class != opStats {
		if err := checkImmutable(o, body); err != nil {
			return err
		}
		v.verified[oi].Store(&cachedReply{body: bytes.Clone(body)})
		return nil
	}
	var got statsWire
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	for attempt := 0; attempt < 2; attempt++ {
		hi := v.version.Load()
		for ver := lo; ver <= hi; ver++ {
			v.mu.Lock()
			st := v.states[ver]
			v.mu.Unlock()
			if st != nil && checkStats(&got, &st[o.slot], v.w.statsAll) == nil {
				v.verified[oi].Store(&cachedReply{version: ver, body: bytes.Clone(body)})
				return nil
			}
		}
		// The reply may reflect an append whose expectations are still
		// being recorded: wait for the append lane, then look again.
		v.appendMu.Lock()
		v.appendMu.Unlock()
	}
	v.mu.Lock()
	st := v.states[lo]
	v.mu.Unlock()
	if st == nil {
		return fmt.Errorf("stats: no oracle state at version %d", lo)
	}
	return checkStats(&got, &st[o.slot], v.w.statsAll)
}

// appendDone verifies an append answer and, when appends change the
// served stats, records the oracle's stats for the new state. The
// caller holds appendMu from before the append was sent.
func (v *verifier) appendDone(oi int, body []byte) error {
	o := &v.set.ops[oi]
	var got appendWire
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	total := v.appended.Add(int64(len(o.recs)))
	if got.Appended != len(o.recs) || int64(got.Total) != total {
		return fmt.Errorf("append: appended %d total %d, oracle %d and %d", got.Appended, got.Total, len(o.recs), total)
	}
	if !v.live || len(v.set.rects) == 0 {
		return nil
	}
	st, err := v.snapshot()
	if err != nil {
		return err
	}
	ver := v.version.Load() + 1
	v.mu.Lock()
	v.states[ver] = st
	delete(v.states, ver-statsHistory)
	v.mu.Unlock()
	v.version.Store(ver)
	return nil
}
