package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span kinds, one per layer boundary the benchmark wraps. Nothing
// inside the program is instrumented: every span is taken by a
// wrapper the benchmark owns around a public surface.
const (
	kindClient = iota // load generator: request sent → body read
	kindServer        // http.Handler around an internal/server Server
	kindRouter        // http.Handler around the internal/router Router
	kindCall          // http.RoundTripper under the router: one shard call
)

var kindNames = [...]string{"client", "server", "router", "shard_call"}

// Headers carrying the op identity across the router→shard hop.
const (
	hdrOp     = "X-Perfbench-Op"
	hdrParent = "X-Perfbench-Parent"
)

// span is one timed interval of one op at one layer. Times are
// nanoseconds since the recorder's epoch (monotonic clock).
type span struct {
	id, parent uint64
	op         uint64 // op id: sequence number << 8 | worker
	kind       uint8
	class      opClass
	target     int16 // index table slot the handler serves (see stack.targets)
	start, end int64
	reqBytes   int32
	respBytes  int32
	status     int16
	reused     bool // kindCall: the connection came from the pool
}

// recorder keeps spans in memory; they are analysed and written out
// after the measured phase. on gates recording, so one set of
// wrappers serves both the untraced and the traced phase of a run.
type recorder struct {
	epoch   time.Time
	on      atomic.Bool
	nextID  atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped int
}

// maxSpans bounds the recorder's memory; spans past it are counted
// as dropped instead of kept.
const maxSpans = 1 << 21

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// newID returns a span id. The top bit keeps span ids disjoint from
// op ids, which double as the ids of client spans.
func (r *recorder) newID() uint64 { return 1<<63 | r.nextID.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, s)
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// spanCtx carries the enclosing router span into the router's shard
// calls, whose contexts derive from the incoming request's.
type spanCtx struct{ op, id uint64 }

type spanCtxKey struct{}

// countingWriter counts response body bytes and keeps the status.
type countingWriter struct {
	http.ResponseWriter
	n      int
	status int
}

func (w *countingWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.n += n
	return n, err
}

// countingBody counts request body bytes as the handler reads them.
type countingBody struct {
	io.ReadCloser
	n int
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += n
	return n, err
}

// traceHandler wraps a Server or the Router: one span per request
// that carries an op id, with its request and response sizes.
type traceHandler struct {
	rec    *recorder
	kind   uint8
	target int16
	next   http.Handler
}

func (h *traceHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	raw := r.Header.Get(hdrOp)
	if raw == "" || !h.rec.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	op, _ := strconv.ParseUint(raw, 10, 64)
	parent, _ := strconv.ParseUint(r.Header.Get(hdrParent), 10, 64)
	if parent == 0 {
		parent = op // first hop: the client span's id is the op id
	}
	s := span{id: h.rec.newID(), parent: parent, op: op, kind: h.kind,
		class: classOfPath(r.URL.Path), target: h.target, start: h.rec.now()}
	body := &countingBody{ReadCloser: r.Body}
	r.Body = body
	cw := &countingWriter{ResponseWriter: w}
	if h.kind == kindRouter {
		r = r.WithContext(context.WithValue(r.Context(), spanCtxKey{}, spanCtx{op: op, id: s.id}))
	}
	h.next.ServeHTTP(cw, r)
	s.end = h.rec.now()
	s.reqBytes = int32(body.n + len(r.URL.RequestURI()))
	s.respBytes = int32(cw.n)
	s.status = int16(cw.status)
	h.rec.add(s)
}

// traceTransport wraps http.DefaultTransport for the router's shard
// calls: one span per call from RoundTrip until the router closes the
// body, with connection reuse from httptrace. It forwards the op id
// and its own span id so the shard's traceHandler can link to it.
type traceTransport struct {
	rec     *recorder
	base    http.RoundTripper
	shardOf func(host string) int16
}

func (t *traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	sc, ok := req.Context().Value(spanCtxKey{}).(spanCtx)
	if !ok || !t.rec.on.Load() {
		return t.base.RoundTrip(req)
	}
	s := &span{id: t.rec.newID(), parent: sc.id, op: sc.op, kind: kindCall,
		class: classOfPath(req.URL.Path), target: t.shardOf(req.URL.Host)}
	ctx := httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) { s.reused = info.Reused },
	})
	out := req.Clone(ctx)
	out.Header.Set(hdrOp, strconv.FormatUint(sc.op, 10))
	out.Header.Set(hdrParent, strconv.FormatUint(s.id, 10))
	if req.ContentLength > 0 {
		s.reqBytes = int32(req.ContentLength)
	}
	s.reqBytes += int32(len(req.URL.RequestURI()))
	s.start = t.rec.now()
	resp, err := t.base.RoundTrip(out)
	if err != nil {
		s.end = t.rec.now()
		t.rec.add(*s)
		return nil, err
	}
	s.status = int16(resp.StatusCode)
	resp.Body = &spanBody{ReadCloser: resp.Body, rec: t.rec, s: s}
	return resp, nil
}

// spanBody ends a shard-call span when the router closes the body,
// so the span covers the whole reply, not just its headers.
type spanBody struct {
	io.ReadCloser
	rec  *recorder
	s    *span
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.respBytes += int32(n)
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.end = b.rec.now()
		b.rec.add(*b.s)
	})
	return err
}

// classOfPath maps a /v1 data route to its op class.
func classOfPath(path string) opClass {
	switch path {
	case "/v1/locate":
		return opLocate
	case "/v1/locate_batch":
		return opBatch
	case "/v1/knn":
		return opKNN
	case "/v1/range":
		return opRange
	case "/v1/stats":
		return opStats
	case "/v1/score":
		return opScore
	case "/v1/append":
		return opAppend
	}
	return numClasses
}

// spanTree indexes one traced phase's spans by op.
type spanTree struct {
	byID     map[uint64]*span
	children map[uint64][]*span
	clients  map[uint64]*span // op id → client span
}

func buildTree(spans []span) *spanTree {
	t := &spanTree{
		byID:     make(map[uint64]*span, len(spans)),
		children: make(map[uint64][]*span, len(spans)),
		clients:  make(map[uint64]*span),
	}
	for i := range spans {
		s := &spans[i]
		if s.kind == kindClient {
			t.clients[s.op] = s
			continue
		}
		t.byID[s.id] = s
	}
	for i := range spans {
		s := &spans[i]
		if s.kind != kindClient {
			t.children[s.parent] = append(t.children[s.parent], s)
		}
	}
	return t
}

// parentOf returns a span's parent: the client span for a first hop,
// the enclosing span otherwise.
func (t *spanTree) parentOf(s *span) *span {
	if s.parent == s.op {
		return t.clients[s.op]
	}
	return t.byID[s.parent]
}

// validate checks the trace's structure: every op that reached a
// handler has a client span, and every child span lies inside its
// parent. It returns the number of violations and the first one.
func (t *spanTree) validate() (bad int, first string) {
	note := func(format string, args ...any) {
		if bad == 0 {
			first = fmt.Sprintf(format, args...)
		}
		bad++
	}
	for _, s := range t.byID {
		if _, ok := t.clients[s.op]; !ok {
			note("op %d: %s span without a client span", s.op, kindNames[s.kind])
			continue
		}
		p := t.parentOf(s)
		if p == nil {
			note("op %d: %s span %d has no parent %d", s.op, kindNames[s.kind], s.id, s.parent)
			continue
		}
		if s.start < p.start || s.end > p.end || s.end < s.start {
			note("op %d: %s span [%d,%d] outside its %s parent [%d,%d]",
				s.op, kindNames[s.kind], s.start, s.end, kindNames[p.kind], p.start, p.end)
		}
	}
	return bad, first
}

// traceEvent is one Chrome trace-event ("X" complete event), the
// format Perfetto and chrome://tracing open.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  uint64         `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes spans as Chrome trace-event JSON. Each load
// worker gets a track; a shard call and the shard handler under it
// get a sub-track per shard, so concurrent fan-out calls nest cleanly.
func writeChromeTrace(path string, spans []span, env map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","otherData":`)
	if err := enc.Encode(env); err != nil {
		f.Close()
		return err
	}
	fmt.Fprint(w, `,"traceEvents":[`)
	for i, s := range spans {
		if i > 0 {
			w.WriteByte(',')
		}
		tid := (s.op & 0xff) * 16
		if s.kind == kindCall || (s.kind == kindServer && s.parent != s.op) {
			tid += uint64(s.target) + 1
		}
		ev := traceEvent{
			Name: kindNames[s.kind] + "." + classNames[s.class],
			Cat:  kindNames[s.kind],
			Ph:   "X",
			Ts:   float64(s.start) / 1e3,
			Dur:  float64(s.end-s.start) / 1e3,
			Pid:  1,
			Tid:  tid,
			Args: map[string]any{"op": s.op, "id": s.id, "parent": s.parent, "status": s.status},
		}
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return err
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
