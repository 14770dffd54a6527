package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ltqp/internal/algebra"
	"ltqp/internal/core"
	"ltqp/internal/deref"
	"ltqp/internal/exec"
	"ltqp/internal/extract"
	"ltqp/internal/linkqueue"
	"ltqp/internal/obs"
	"ltqp/internal/plan"
	"ltqp/internal/rdf"
	"ltqp/internal/sparql"
	"ltqp/internal/store"
	"ltqp/internal/turtle"
)

// maxSpans bounds the spans one traced run keeps in memory.
const maxSpans = 1 << 17

// profileModules are the engine modules whose self-CPU share the traced
// run reports from its own CPU profile; frames outside ltqp/internal count
// as "other".
var profileModules = []string{
	"deref", "turtle", "rdf", "store", "extract", "linkqueue", "core",
	"sparql", "algebra", "plan", "exec", "serve", "obs", "resource", "metrics", "other",
}

// span is one timed step of a layer: a query, a fetch, a cache lookup, an
// extraction or a replayed parse, intern, ingest, plan or exec.
type span struct {
	Layer  string `json:"layer"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Query  int64  `json:"query"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// captured is a document body as it crossed the transport.
type captured struct {
	body     string
	finalURL string
}

// tracer is the traced run's recorder. Its decorators sit at the engine's
// public seams: the HTTP client's transport, the extractor set, the link
// queue constructor and the shared document cache. Everything is off until
// on is set, so an untraced pass through the same decorators measures the
// overhead. The client runs one query at a time, so the current query
// identifies the owner of every span.
type tracer struct {
	on      atomic.Bool
	capture atomic.Bool // keep document bodies for the replays
	epoch   time.Time
	ids     atomic.Int64

	query     atomic.Int64 // number of the running query
	querySpan atomic.Int64 // its root span
	queryName string
	queryT0   time.Time
	popsT0    int64

	mu       sync.Mutex
	spans    []span
	dropped  int
	fetchMS  []float64
	appMS    []float64
	lookupUS []float64
	pagePops []float64
	// In-flight fetches integrated over the time queries run.
	inflight     int
	active       bool
	lastChange   time.Time
	inflightArea float64 // fetch-seconds
	activeTime   float64 // seconds
	docs200      int64
	bytes200     int64
	notModified  int64
	bodies       map[string]captured // URL → first body seen
	queryDocs    map[string][]string // query name → documents it used
	recording    map[string]bool     // the running query's documents (first traced run of it)

	extractNS, extractDocs, extractLinks  atomic.Int64
	pushes, accepted, pushNS, pops, popNS atomic.Int64
	lookups, hits                         atomic.Int64
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), bodies: map[string]captured{}, queryDocs: map[string][]string{}}
	t.capture.Store(true)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(layer string, parent int64, start, end int64) {
	t.recordAs(t.ids.Add(1), layer, parent, start, end)
}

// recordAs keeps a span whose id was taken before its children's.
func (t *tracer) recordAs(id int64, layer string, parent int64, start, end int64) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{Layer: layer, ID: id, Parent: parent,
			Query: t.query.Load(), Start: start, End: end})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// decorate installs the tracer's decorators on engine options. A nil
// tracer leaves them as they are.
func (t *tracer) decorate(o *core.Options) {
	if t == nil {
		return
	}
	base := o.Client.Transport
	o.Client = &http.Client{Transport: &tracedTransport{base: base, t: t}}
	extractors := o.Extractors
	o.Extractors = func(shape *extract.QueryShape) []extract.Extractor {
		inner := extract.DefaultSolidSet(shape)
		if extractors != nil {
			inner = extractors(shape)
		}
		out := make([]extract.Extractor, len(inner))
		for i, x := range inner {
			out[i] = &tracedExtractor{Extractor: x, t: t, first: i == 0}
		}
		return out
	}
	// Both engine configurations use the default FIFO discipline.
	o.NewQueue = func() linkqueue.Queue { return &tracedQueue{q: linkqueue.NewFIFO(), t: t} }
	if o.Shared != nil {
		o.Shared = &tracedShared{SharedCache: o.Shared, t: t}
	}
}

func (t *tracer) queryStart(name string) {
	if t == nil || !t.on.Load() {
		return
	}
	t.query.Add(1)
	now := time.Now()
	t.mu.Lock()
	t.queryName, t.queryT0 = name, now
	t.recording = nil
	if _, done := t.queryDocs[name]; !done {
		t.recording = map[string]bool{}
		t.queryDocs[name] = nil
	}
	t.active, t.lastChange = true, now
	t.mu.Unlock()
	t.popsT0 = t.pops.Load()
	t.querySpan.Store(t.ids.Add(1))
}

// queryEnd marks the client reaching the query's page or end.
func (t *tracer) queryEnd() {
	if t == nil || !t.on.Load() {
		return
	}
	now := time.Now()
	pops := t.pops.Load() - t.popsT0
	t.mu.Lock()
	t.integrateLocked(now)
	t.active = false
	t.activeTime += now.Sub(t.queryT0).Seconds()
	t.pagePops = append(t.pagePops, float64(pops))
	start := int64(t.queryT0.Sub(t.epoch))
	t.mu.Unlock()
	t.recordAs(t.querySpan.Load(), "query", 0, start, int64(now.Sub(t.epoch)))
}

func (t *tracer) integrateLocked(now time.Time) {
	if t.active {
		t.inflightArea += float64(t.inflight) * now.Sub(t.lastChange).Seconds()
	}
	t.lastChange = now
}

func (t *tracer) fetching(delta int) {
	t.mu.Lock()
	t.integrateLocked(time.Now())
	t.inflight += delta
	t.mu.Unlock()
}

// usedDocument notes a document the running query dereferenced.
func (t *tracer) usedDocument(url string) {
	t.mu.Lock()
	if t.recording != nil && !t.recording[url] {
		t.recording[url] = true
		t.queryDocs[t.queryName] = append(t.queryDocs[t.queryName], url)
	}
	t.mu.Unlock()
}

// tracedTransport times each fetch from request start to the end of its
// body, reads the pod's Server-Timing app entry, and captures bodies for
// the replays.
type tracedTransport struct {
	base http.RoundTripper
	t    *tracer
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t := tt.t
	on, capture := t.on.Load(), t.capture.Load()
	if !on && !capture {
		return tt.base.RoundTrip(req)
	}
	start := t.now()
	parent := t.querySpan.Load()
	if on {
		t.fetching(1)
	}
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		if on {
			t.fetching(-1)
			t.record("deref.fetch", parent, start, t.now())
		}
		return resp, err
	}
	url := req.URL.String()
	b := &tracedBody{ReadCloser: resp.Body, t: t, url: url, status: resp.StatusCode,
		timed: on, start: start, parent: parent}
	if on {
		t.usedDocument(url)
		if app, ok := serverTimingApp(resp.Header.Values("Server-Timing")); ok {
			t.mu.Lock()
			t.appMS = append(t.appMS, app)
			t.mu.Unlock()
		}
	}
	if capture && resp.StatusCode == http.StatusOK {
		t.mu.Lock()
		_, have := t.bodies[url]
		t.mu.Unlock()
		if !have {
			b.buf = &bytes.Buffer{}
			b.finalURL = resp.Request.URL.String()
		}
	}
	resp.Body = b
	return resp, nil
}

// serverTimingApp extracts the app entry's duration in milliseconds.
func serverTimingApp(values []string) (float64, bool) {
	for _, v := range values {
		for _, entry := range strings.Split(v, ",") {
			parts := strings.Split(strings.TrimSpace(entry), ";")
			if parts[0] != "app" {
				continue
			}
			for _, p := range parts[1:] {
				if d, ok := strings.CutPrefix(strings.TrimSpace(p), "dur="); ok {
					f, err := strconv.ParseFloat(d, 64)
					return f, err == nil
				}
			}
		}
	}
	return 0, false
}

type tracedBody struct {
	io.ReadCloser
	t        *tracer
	url      string
	finalURL string
	status   int
	timed    bool
	start    int64
	parent   int64
	n        int64
	buf      *bytes.Buffer
	once     sync.Once
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if b.buf != nil {
		b.buf.Write(p[:n])
	}
	if err == io.EOF {
		b.finish(true)
	}
	return n, err
}

func (b *tracedBody) Close() error {
	b.finish(false)
	return b.ReadCloser.Close()
}

func (b *tracedBody) finish(complete bool) {
	b.once.Do(func() {
		t := b.t
		end := t.now()
		if b.timed {
			t.fetching(-1)
			t.record("deref.fetch", b.parent, b.start, end)
		}
		t.mu.Lock()
		defer t.mu.Unlock()
		if complete && b.buf != nil {
			if _, have := t.bodies[b.url]; !have {
				t.bodies[b.url] = captured{body: b.buf.String(), finalURL: b.finalURL}
			}
		}
		b.buf = nil
		if !b.timed {
			return
		}
		t.fetchMS = append(t.fetchMS, float64(end-b.start)/1e6)
		switch b.status {
		case http.StatusOK:
			t.docs200++
			t.bytes200 += b.n
		case http.StatusNotModified:
			t.notModified++
		}
	})
}

type tracedExtractor struct {
	extract.Extractor
	t     *tracer
	first bool
}

func (x *tracedExtractor) Extract(doc extract.Document) []extract.Link {
	t := x.t
	if !t.on.Load() {
		return x.Extractor.Extract(doc)
	}
	start := t.now()
	links := x.Extractor.Extract(doc)
	end := t.now()
	t.record("extract", t.querySpan.Load(), start, end)
	t.extractNS.Add(end - start)
	t.extractLinks.Add(int64(len(links)))
	if x.first {
		t.extractDocs.Add(1)
	}
	return links
}

// tracedQueue counts and times pushes and pops in aggregate only.
type tracedQueue struct {
	q linkqueue.Queue
	t *tracer
}

func (q *tracedQueue) Push(l linkqueue.Link) bool {
	if !q.t.on.Load() {
		return q.q.Push(l)
	}
	start := time.Now()
	ok := q.q.Push(l)
	q.t.pushNS.Add(int64(time.Since(start)))
	q.t.pushes.Add(1)
	if ok {
		q.t.accepted.Add(1)
	}
	return ok
}

func (q *tracedQueue) Pop() (linkqueue.Link, bool) {
	if !q.t.on.Load() {
		return q.q.Pop()
	}
	start := time.Now()
	l, ok := q.q.Pop()
	q.t.popNS.Add(int64(time.Since(start)))
	if ok {
		q.t.pops.Add(1)
	}
	return l, ok
}

func (q *tracedQueue) Len() int  { return q.q.Len() }
func (q *tracedQueue) Seen() int { return q.q.Seen() }

type tracedShared struct {
	deref.SharedCache
	t *tracer
}

func (s *tracedShared) Dereference(ctx context.Context, key, url string, fetch deref.FetchFunc) (*deref.Result, bool, error) {
	t := s.t
	if !t.on.Load() {
		return s.SharedCache.Dereference(ctx, key, url, fetch)
	}
	start := t.now()
	res, hit, err := s.SharedCache.Dereference(ctx, key, url, fetch)
	end := t.now()
	t.record("serve.lookup", t.querySpan.Load(), start, end)
	t.usedDocument(url)
	t.lookups.Add(1)
	if hit {
		t.hits.Add(1)
	}
	t.mu.Lock()
	t.lookupUS = append(t.lookupUS, float64(end-start)/1e3)
	t.mu.Unlock()
	return res, hit, err
}

// tracedRun measures one untraced pass through the decorators, then the
// traced phase under a CPU profile, then replays the captured documents
// layer by layer, then the cost of the endpoint's observation.
func tracedRun(e *env, t *tracer) (*phase, map[string]metric, error) {
	t.capture.Store(false)
	plain, err := e.measure(1, e.opts.seed+100)
	if err != nil {
		return nil, nil, err
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, nil, err
	}
	t.on.Store(true)
	t.capture.Store(true)
	ph, err := e.measure(e.opts.workload.passes(e.opts.seconds), e.opts.seed)
	t.on.Store(false)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, nil, err
	}
	n := float64(ph.queries)
	m := map[string]metric{}

	t.mu.Lock()
	m["deref.fetch_ms_p50"] = metric{median(t.fetchMS), "ms"}
	m["deref.inflight_mean"] = metric{ratio(t.inflightArea, t.activeTime), "count"}
	m["deref.kb_per_doc"] = metric{ratio(float64(t.bytes200)/1024, float64(t.docs200)), "KiB"}
	m["deref.not_modified_per_query"] = metric{float64(t.notModified) / n, "count"}
	m["pods.app_ms_p50"] = metric{median(t.appMS), "ms"}
	m["serve.lookup_us_p50"] = metric{median(t.lookupUS), "us"}
	m["linkqueue.pops_before_page"] = metric{mean(t.pagePops), "count"}
	t.mu.Unlock()
	m["pods.cpu_ms_per_query"] = metric{float64(ph.pod.CPUNanos) / 1e6 / n, "ms"}
	m["extract.us_per_doc"] = metric{ratio(float64(t.extractNS.Load())/1e3, float64(t.extractDocs.Load())), "us"}
	m["extract.links_per_doc"] = metric{ratio(float64(t.extractLinks.Load()), float64(t.extractDocs.Load())), "count"}
	m["linkqueue.push_ns"] = metric{ratio(float64(t.pushNS.Load()), float64(t.pushes.Load())), "ns"}
	m["linkqueue.pop_ns"] = metric{ratio(float64(t.popNS.Load()), float64(t.pops.Load())), "ns"}
	m["linkqueue.accepted_ratio"] = metric{ratio(float64(t.accepted.Load()), float64(t.pushes.Load())), "ratio"}
	m["serve.hit_ratio"] = metric{ratio(float64(t.hits.Load()), float64(t.lookups.Load())), "ratio"}
	m["serve.cache_mb"] = metric{float64(e.shared.Stats().Bytes) / (1 << 20), "MiB"}
	m["gc.cpu_share"] = metric{ratio(ph.gcCPU, ph.busyCPU), "ratio"}
	m["gc.cycles_per_query"] = metric{float64(ph.gcCycles) / n, "count"}
	m["trace.overhead_cpu_ms_per_query"] = metric{
		(float64(ph.cpuNanos)/n - float64(plain.cpuNanos)/float64(plain.queries)) / 1e6, "ms"}

	shares, err := profileShares(prof.Bytes())
	if err != nil {
		return nil, nil, fmt.Errorf("reading the CPU profile: %w", err)
	}
	for _, mod := range profileModules {
		m["profile."+mod+"_share"] = metric{shares[mod], "ratio"}
	}

	for k, v := range t.replay(e) {
		m[k] = v
	}
	cpu, alloc, err := e.observationCost()
	if err != nil {
		return nil, nil, err
	}
	m["obs.cpu_ms_per_query"] = metric{cpu, "ms"}
	m["obs.alloc_mb_per_query"] = metric{alloc, "MiB"}

	if err := t.writeSpans(e.opts.spansOut); err != nil {
		return nil, nil, err
	}
	return ph, m, nil
}

// replay feeds the documents each query of the mix used through the
// public functions of turtle, rdf, store, sparql/algebra/plan and exec,
// timing each layer on its own.
func (t *tracer) replay(e *env) map[string]metric {
	var (
		docs, triples, terms, useful, storeTriples       float64
		parseNS, parseAlloc, internNS, addNS, addAlloc   float64
		retained, planNS, execNS, execAlloc, replayedQry float64
	)
	ctx := context.Background()
	for _, q := range e.mix {
		urls := t.queryDocs[q.name]
		parsed, err := sparql.ParseQuery(q.text)
		if err != nil {
			continue
		}
		patterns := queryPatterns(parsed.Where)
		root, rootStart := t.ids.Add(1), t.now()

		runtime.GC()
		live0 := liveHeap()
		dict := rdf.NewDict()
		st := store.NewWithDict(dict)
		for i, url := range urls {
			doc, ok := t.bodies[url]
			if !ok {
				continue
			}
			a0, s0 := allocBytes(), t.now()
			ts, err := turtle.Parse(doc.body, turtle.Options{Base: doc.finalURL, BlankPrefix: fmt.Sprintf("r%d.", i)})
			s1 := t.now()
			parseNS += float64(s1 - s0)
			parseAlloc += float64(allocBytes() - a0)
			t.record("replay.turtle", root, s0, s1)
			if err != nil {
				continue
			}
			docs++
			triples += float64(len(ts))
			size0 := dict.Size()
			for _, tr := range ts {
				dict.InternTriple(tr)
			}
			s2 := t.now()
			internNS += float64(s2 - s1)
			terms += float64(dict.Size() - size0)
			t.record("replay.rdf", root, s1, s2)
			a1 := allocBytes()
			st.AddDocument(doc.finalURL, ts)
			s3 := t.now()
			addNS += float64(s3 - s2)
			addAlloc += float64(allocBytes() - a1)
			t.record("replay.store", root, s2, s3)
			if matchesAny(ts, patterns) {
				useful++
			}
		}
		st.Close()
		runtime.GC()
		if st.Len() > 0 {
			// Signed: the rest of the process may free more than the
			// store holds between the two collections.
			retained += float64(int64(liveHeap())-int64(live0)) / float64(st.Len())
			storeTriples++
		}

		const planRounds = 20
		s0 := t.now()
		var op algebra.Operator
		for i := 0; i < planRounds; i++ {
			pq, _ := sparql.ParseQuery(q.text)
			op, err = algebra.Translate(pq)
			if err != nil {
				break
			}
			op = plan.New(pq.MentionedIRIs()).Optimize(op)
		}
		s1 := t.now()
		t.record("replay.plan", root, s0, s1)
		if err != nil {
			continue
		}
		planNS += float64(s1-s0) / planRounds
		a0 := allocBytes()
		for range exec.Eval(ctx, op, exec.NewEnv(st)) {
		}
		s2 := t.now()
		t.record("replay.exec", root, s1, s2)
		execNS += float64(s2 - s1)
		execAlloc += float64(allocBytes() - a0)
		replayedQry++
		t.recordAs(root, "replay.query", 0, rootStart, s2)
		runtime.KeepAlive(st)
	}
	return map[string]metric{
		"turtle.parse_us_per_doc":         {ratio(parseNS/1e3, docs), "us"},
		"turtle.alloc_kb_per_doc":         {ratio(parseAlloc/1024, docs), "KiB"},
		"turtle.triples_per_doc":          {ratio(triples, docs), "count"},
		"rdf.intern_us_per_doc":           {ratio(internNS/1e3, docs), "us"},
		"rdf.terms_per_doc":               {ratio(terms, docs), "count"},
		"store.add_us_per_doc":            {ratio(addNS/1e3, docs), "us"},
		"store.alloc_kb_per_doc":          {ratio(addAlloc/1024, docs), "KiB"},
		"store.retained_bytes_per_triple": {ratio(retained, storeTriples), "B"},
		"core.useful_doc_ratio":           {ratio(useful, docs), "ratio"},
		"plan.us_per_query":               {ratio(planNS/1e3, replayedQry), "us"},
		"exec.ms_per_query":               {ratio(execNS/1e6, replayedQry), "ms"},
		"exec.alloc_mb_per_query":         {ratio(execAlloc/(1<<20), replayedQry), "MiB"},
	}
}

// observationCost runs one pass of the mix with the endpoint's observation
// (Observer, event bus and Explain) and one without, and returns the
// difference in engine CPU and allocation per query. Only serve-warm's
// engine observes; the other workloads report 0 and skip the two passes.
func (e *env) observationCost() (cpuMS, allocMB float64, err error) {
	if !e.opts.workload.serve {
		return 0, 0, nil
	}
	with := e.base
	observer := obs.NewObserver()
	with.Obs, with.Events, with.Explain = observer, observer.Bus(), true
	without := e.base
	without.Obs, without.Events, without.Explain = nil, nil, false
	saved := e.engine
	defer func() { e.engine = saved }()
	var cost [2]*phase
	for i, opts := range []core.Options{without, with} {
		e.useEngine(opts)
		if cost[i], err = e.measure(1, e.opts.seed+200); err != nil {
			return 0, 0, err
		}
	}
	perQuery := func(p *phase) (float64, float64) {
		n := float64(p.queries)
		return float64(p.cpuNanos) / 1e6 / n, float64(p.allocs) / (1 << 20) / n
	}
	c0, a0 := perQuery(cost[0])
	c1, a1 := perQuery(cost[1])
	return c1 - c0, a1 - a0, nil
}

func (t *tracer) writeSpans(path string) error {
	if path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	t.mu.Lock()
	err = json.NewEncoder(f).Encode(struct {
		Dropped int    `json:"dropped"`
		Spans   []span `json:"spans"`
	}{t.dropped, t.spans})
	t.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// queryPatterns lists the query's triple patterns as triples whose
// variables and blank nodes are wildcards; an alternative of predicates
// becomes one pattern per predicate and any other path a wildcard
// predicate.
func queryPatterns(g sparql.GraphPattern) []rdf.Triple {
	var out []rdf.Triple
	switch x := g.(type) {
	case *sparql.GroupPattern:
		for _, el := range x.Elements {
			out = append(out, queryPatterns(el)...)
		}
	case sparql.GroupPattern:
		for _, el := range x.Elements {
			out = append(out, queryPatterns(el)...)
		}
	case sparql.BGP:
		for _, tp := range x.Patterns {
			var preds []rdf.Term
			switch p := tp.Path.(type) {
			case sparql.PathIRI:
				preds = append(preds, rdf.NewIRI(p.IRI))
			case sparql.PathAlternative:
				for _, part := range p.Parts {
					if iri, ok := part.(sparql.PathIRI); ok {
						preds = append(preds, rdf.NewIRI(iri.IRI))
					} else {
						preds = append(preds, rdf.Term{})
					}
				}
			default:
				preds = append(preds, rdf.Term{})
			}
			for _, p := range preds {
				out = append(out, rdf.NewTriple(wildcard(tp.S), p, wildcard(tp.O)))
			}
		}
	}
	return out
}

func wildcard(t rdf.Term) rdf.Term {
	if t.Kind == rdf.TermVar || t.Kind == rdf.TermBlank {
		return rdf.Term{}
	}
	return t
}

func matchesAny(ts []rdf.Triple, patterns []rdf.Triple) bool {
	for _, tr := range ts {
		for _, p := range patterns {
			if (p.S.IsZero() || p.S == tr.S) && (p.P.IsZero() || p.P == tr.P) && (p.O.IsZero() || p.O == tr.O) {
				return true
			}
		}
	}
	return false
}

func allocBytes() uint64 { return readRuntime().allocs }

func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}
