package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// load drives one deployment from this process through at most
// GOMAXPROCS client connections: one worker per connection, one op in
// flight per worker. The op sequence position runs on across the
// warm-up and the measured phases.
type load struct {
	st      *stack
	clients []*http.Client
	pos     atomic.Int64

	mismatches atomic.Int64 // answers that disagree with the oracle
	errMu      sync.Mutex
	errs       []string // the first few failures, for diagnosis
}

// phase is what one loop measured. Latencies are in nanoseconds; in
// the open loop they run from each op's due time.
type phase struct {
	lat        [numClasses][]int64
	late       []int64
	backlogMax int64
	attempted  int64
	failed     int64
	elapsed    time.Duration
}

func (p *phase) merge(q *phase) {
	for c := range p.lat {
		p.lat[c] = append(p.lat[c], q.lat[c]...)
	}
	p.late = append(p.late, q.late...)
	p.backlogMax = max(p.backlogMax, q.backlogMax)
	p.attempted += q.attempted
	p.failed += q.failed
}

func (p *phase) all() []int64 {
	var out []int64
	for _, l := range p.lat {
		out = append(out, l...)
	}
	return out
}

func (p *phase) ok() int64 { return p.attempted - p.failed }

// timerSlack is about how late the kernel wakes a sleeping thread.
const timerSlack = 60 * time.Microsecond

// sleepUntil waits until recorder time t. It sleeps in the kernel,
// which wakes within tens of microseconds, where time.Sleep can
// oversleep by a millisecond when the process is idle; it wakes a
// slack early and yields until t, so sends leave on schedule.
func sleepUntil(rec *recorder, t int64) {
	if wait := time.Duration(t-rec.now()) - timerSlack; wait > 0 {
		ts := syscall.NsecToTimespec(int64(wait))
		syscall.Nanosleep(&ts, nil)
	}
	for rec.now() < t {
		runtime.Gosched()
	}
}

// requestTimeout bounds one op, so a stuck request cannot hold the
// run past its deadline by much.
const requestTimeout = 10 * time.Second

func newLoad(st *stack) *load {
	n := runtime.GOMAXPROCS(0)
	lg := &load{st: st, clients: make([]*http.Client, n)}
	for i := range lg.clients {
		lg.clients[i] = &http.Client{Timeout: requestTimeout, Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}}
	}
	return lg
}

func (lg *load) close() {
	for _, c := range lg.clients {
		c.Transport.(*http.Transport).CloseIdleConnections()
	}
}

func (lg *load) fail(format string, args ...any) {
	lg.errMu.Lock()
	if len(lg.errs) < 5 {
		lg.errs = append(lg.errs, fmt.Sprintf(format, args...))
	}
	lg.errMu.Unlock()
}

func (lg *load) firstError() string {
	lg.errMu.Lock()
	defer lg.errMu.Unlock()
	if len(lg.errs) == 0 {
		return ""
	}
	return lg.errs[0]
}

// do sends the op at sequence position pos on worker's connection and
// checks its answer. It returns the op's class, when it was sent and
// when its reply was read (recorder time), and whether it failed: a
// transport error, a non-2xx status, or an answer the oracle rejects.
func (lg *load) do(worker int, pos int64) (class opClass, start, end int64, failed bool) {
	st := lg.st
	oi := int(st.set.seq[pos%seqLen])
	o := &st.set.ops[oi]
	base := st.baseURL
	if o.side {
		base = st.sideURL
	}
	var body io.Reader = http.NoBody
	if o.body != nil {
		body = bytes.NewReader(o.body)
	}
	req, err := http.NewRequest(o.method, base+o.path, body)
	if err != nil {
		lg.fail("%s: %v", classNames[o.class], err)
		return o.class, st.rec.now(), st.rec.now(), true
	}
	if o.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	id := uint64(pos)<<8 | uint64(worker)
	tracing := st.rec.on.Load()
	if tracing {
		req.Header.Set(hdrOp, strconv.FormatUint(id, 10))
	}
	if o.class == opAppend {
		st.ver.appendMu.Lock()
		defer st.ver.appendMu.Unlock()
	}
	lo := st.ver.begin()
	start = st.rec.now()
	resp, err := lg.clients[worker].Do(req)
	var data []byte
	status := 0
	if err == nil {
		status = resp.StatusCode
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	end = st.rec.now()
	if tracing {
		st.rec.add(span{id: id, op: id, kind: kindClient, class: o.class, start: start, end: end, status: int16(status)})
	}
	switch {
	case err != nil:
		lg.fail("%s %s: %v", o.method, o.path, err)
		return o.class, start, end, true
	case status/100 != 2:
		lg.fail("%s %s: status %d: %.200s", o.method, o.path, status, data)
		return o.class, start, end, true
	}
	if o.class == opAppend {
		err = st.ver.appendDone(oi, data)
	} else {
		err = st.ver.check(oi, lo, data)
	}
	if err != nil {
		lg.mismatches.Add(1)
		lg.fail("%s %s: wrong answer: %v", o.method, o.path, err)
		return o.class, start, end, true
	}
	return o.class, start, end, false
}

// closedCount runs a closed loop until n ops have been sent.
func (lg *load) closedCount(n int) *phase {
	stop := lg.pos.Load() + int64(n)
	return lg.closed(func(pos int64) bool { return pos < stop })
}

// closedFor runs a closed loop for d: each worker sends its next op as
// soon as the previous one is answered.
func (lg *load) closedFor(d time.Duration) *phase {
	deadline := lg.st.rec.now() + int64(d)
	return lg.closed(func(int64) bool { return lg.st.rec.now() < deadline })
}

func (lg *load) closed(more func(pos int64) bool) *phase {
	t0 := time.Now()
	parts := make([]phase, len(lg.clients))
	var wg sync.WaitGroup
	for w := range lg.clients {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := &parts[w]
			for {
				pos := lg.pos.Add(1) - 1
				if !more(pos) {
					return
				}
				c, start, end, failed := lg.do(w, pos)
				p.attempted++
				if failed {
					p.failed++
					continue
				}
				p.lat[c] = append(p.lat[c], end-start)
			}
		}(w)
	}
	wg.Wait()
	out := &phase{elapsed: time.Since(t0)}
	for i := range parts {
		out.merge(&parts[i])
	}
	return out
}

// open runs an open loop for d at rate ops/s. Op i is due at
// t0 + i/rate whether or not earlier ops have been answered; a worker
// that frees up late sends its next op at once, and the op's latency
// still counts from its due time. late records how far behind the
// schedule each send was, backlogMax how many due ops were waiting.
func (lg *load) open(d time.Duration, rate float64) *phase {
	rec := lg.st.rec
	interval := float64(time.Second) / rate
	n := int64(d.Seconds() * rate)
	base := lg.pos.Load()
	var next atomic.Int64
	t0 := rec.now()
	parts := make([]phase, len(lg.clients))
	var wg sync.WaitGroup
	for w := range lg.clients {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := &parts[w]
			for {
				i := next.Add(1) - 1
				if i >= n {
					return
				}
				due := t0 + int64(float64(i)*interval)
				sleepUntil(rec, due)
				now := rec.now()
				p.late = append(p.late, now-due)
				if backlog := int64(float64(now-t0)/interval) - i; backlog > p.backlogMax {
					p.backlogMax = backlog
				}
				c, _, end, failed := lg.do(w, base+i)
				p.attempted++
				if failed {
					p.failed++
					continue
				}
				p.lat[c] = append(p.lat[c], end-due)
			}
		}(w)
	}
	wg.Wait()
	lg.pos.Store(base + n)
	out := &phase{elapsed: time.Duration(rec.now() - t0)}
	for i := range parts {
		out.merge(&parts[i])
	}
	return out
}
