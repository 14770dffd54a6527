package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ltqp/internal/core"
	"ltqp/internal/deref"
	"ltqp/internal/obs"
	"ltqp/internal/serve"
	"ltqp/internal/solidbench"
)

// workload is one of the benchmark's Discover workloads. All three run the
// same 32-query mix (shapes 1–8 × variants 1–4) as one closed-loop client,
// one query at a time.
type workload struct {
	name string
	// persons is the number of pods of the dataset.
	persons int
	// delay is the fixed per-response pod delay.
	delay time.Duration
	// page, when positive, reads each query only to its page-th result
	// (or its end) and then closes it.
	page int
	// serve runs one long-lived engine configured like the SPARQL
	// endpoint over a warmed shared document cache, bumping the cache
	// epoch before every pass.
	serve bool
	// closeOnly closes the variant-1 query of every shape the way
	// ltqp.WaitWithTimeout does: Close alone, with the caller's context
	// left open, once the engine has produced the row after the page. The
	// other queries end their context right after Close, as an HTTP
	// handler's would.
	closeOnly bool
	// passSeconds is about how long one pass of the mix takes on the
	// reference machine (see README.md). It turns --seconds into a fixed
	// number of passes, so the operations attempted do not depend on how
	// fast the engine is.
	passSeconds float64
	// setups is the number of set-ups per run; setup_s is their median.
	setups int
}

var workloads = []workload{
	{name: "discover-cold", persons: 6, delay: 10 * time.Millisecond, passSeconds: 24, setups: 3},
	{name: "first-page-rtt", persons: 6, delay: 10 * time.Millisecond, page: 10, closeOnly: true, passSeconds: 10, setups: 3},
	{name: "serve-warm", persons: 16, serve: true, passSeconds: 2.5, setups: 3},
}

// passes is the number of measured passes of a run of the given length:
// seconds/passSeconds rounded, at least one.
func (w workload) passes(seconds float64) int {
	return max(1, int(seconds/w.passSeconds+0.5))
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options configures one benchmark run.
type options struct {
	workload workload
	seed     int64
	seconds  float64
	trace    bool
	data     podParams // dataset and pod process; Delay comes from the workload
	setups   int       // set-ups per run; setup_s is their median
	spansOut string    // where a traced run writes its spans
}

// query is one entry of the mix with its generator-derived answer.
type query struct {
	name    string
	shape   int
	variant int
	text    string
	ans     *answer
}

// outcome is what one query attempt produced.
type outcome struct {
	latency time.Duration // to the end, or to the page-th result
	ttfr    time.Duration
	hasTTFR bool
	done    time.Duration // to the end of the release check
	release time.Duration // from Close to the end of the release check
	err     error         // set when the attempt failed
}

// Failed checks wrap one of these, so a failure can be told apart from the
// engine faults the benchmark keeps (see knownFault).
var (
	errWrongAnswer = errors.New("wrong answer")
	errNotReleased = errors.New("not released")
)

// phase aggregates one measured phase.
type phase struct {
	queries   int
	failed    []string
	unknown   int           // failures that are not known faults
	busy      time.Duration // sum of the queries' time to the end of their release check
	release   time.Duration // the slowest release of a query that did not fail
	latencies []float64     // ms
	ttfrs     []float64     // ms
	cpuNanos  int64
	allocs    uint64
	gcCycles  uint64
	gcCPU     float64 // seconds of GC CPU
	busyCPU   float64 // seconds of non-idle CPU (runtime/metrics)
	heapPeak  uint64  // live heap
	pod       podStats
}

// env is the state a set-up produces and the measured phase uses.
type env struct {
	opts   options
	pods   *pods
	mix    []query
	shared *serve.SharedCache
	base   core.Options        // the workload's engine options, undecorated
	engine func() *core.Engine // the engine for the next query
	tr     *tracer             // nil when untraced
	stacks []byte              // goroutine dump buffer of the release check
}

// useEngine makes the client query engines built from opts (decorated when
// traced): one long-lived engine for serve-warm, a fresh one per query
// otherwise.
func (e *env) useEngine(opts core.Options) {
	e.tr.decorate(&opts)
	if e.opts.workload.serve {
		engine := core.New(opts)
		e.engine = func() *core.Engine { return engine }
		return
	}
	e.engine = func() *core.Engine { return core.New(opts) }
}

// setup generates the dataset, starts the pod process, builds the engine
// and warms it up unmeasured with the variant-2 queries of shapes 1–4 (for
// serve-warm: the cache warm-up over the whole mix with one dereference in
// flight).
func setup(o options, tr *tracer) (*env, error) {
	p := o.data
	p.Delay = o.workload.delay
	pp, err := startPods(p)
	if err != nil {
		return nil, err
	}
	e := &env{opts: o, pods: pp, tr: tr}
	ds := solidbench.Generate(datasetConfig(p, pp.host))
	for shape := 1; shape <= 8; shape++ {
		for variant := 1; variant <= 4; variant++ {
			q := ds.Discover(shape, variant)
			e.mix = append(e.mix, query{name: q.Name, shape: shape, variant: variant, text: q.Text, ans: referenceAnswer(ds, shape, variant)})
		}
	}
	e.base = cliOptions(pp.client)
	if o.workload.serve {
		e.base, e.shared = endpointOptions(pp.client)
		warm := e.base
		warm.MaxConcurrent = 1
		tr.decorate(&warm)
		w := core.New(warm)
		// The warm-up fills the cache in catalog order, one document at a
		// time, so every run caches the same documents under the same
		// blank-node labels.
		for _, q := range e.mix {
			e.runQuery(w, q)
		}
		e.useEngine(e.base)
		return e, nil
	}
	e.useEngine(e.base)
	for _, q := range e.mix {
		if q.variant == 2 && q.shape <= 4 {
			e.runQuery(e.engine(), q)
		}
	}
	return e, nil
}

// cliOptions mirrors the ltqp-sparql command's defaults: lenient, FIFO
// queue, Solid extractors, up to 3 retries, no cache and no observation.
func cliOptions(client *http.Client) core.Options {
	return core.Options{
		Client:  client,
		Lenient: true,
		Retry: &deref.RetryPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Millisecond,
			AttemptTimeout: 30 * time.Second},
	}
}

// endpointOptions mirrors the sparql-endpoint command's engine: an
// Observer, Explain, an engine document cache and the shared document cache.
func endpointOptions(client *http.Client) (core.Options, *serve.SharedCache) {
	observer := obs.NewObserver()
	shared := serve.NewSharedCache(serve.SharedCacheOptions{
		MaxBytes: serve.DefaultMaxBytes, TTL: serve.DefaultTTL,
		Obs: observer.Metrics, Events: observer.Events,
	})
	return core.Options{
		Client:  client,
		Lenient: true,
		Obs:     observer,
		Events:  observer.Bus(),
		Explain: true,
		Cache:   deref.NewCache(1024),
		Shared:  shared,
	}, shared
}

// pass runs the mix once in a seed-derived order. Each outcome is handed
// to record when it is non-nil.
func (e *env) pass(rng *rand.Rand, record func(query, outcome)) {
	if e.shared != nil {
		// A pod update: every cached document revalidates once this pass.
		e.shared.Invalidate()
	}
	for _, i := range rng.Perm(len(e.mix)) {
		q := e.mix[i]
		out := e.runQuery(e.engine(), q)
		if record != nil {
			record(q, out)
		}
	}
}

// runQuery runs one query as the client does: read to the end (or to the
// page-th result), close, then check that the engine released every
// goroutine and that the rows match the generator-derived answer.
func (e *env) runQuery(engine *core.Engine, q query) outcome {
	lastQuery.Store(&q.name)
	before := e.engineGoroutines()
	ctx, cancel := context.WithTimeout(context.Background(), queryTimeout)
	defer cancel()
	page := e.opts.workload.page
	closeOnly := e.closeOnly(q)
	e.tr.queryStart(q.name)
	start := time.Now()
	x, err := engine.Query(ctx, q.text, nil)
	if err != nil {
		e.tr.queryEnd()
		return outcome{err: err}
	}
	var out outcome
	var rows []string
	ended := true
	for b := range x.Results {
		if len(rows) == 0 {
			out.ttfr, out.hasTTFR = time.Since(start), true
		}
		rows = append(rows, q.ans.rowKey(b))
		if page > 0 && len(rows) == page {
			ended = false
			break
		}
	}
	out.latency = time.Since(start)
	e.tr.queryEnd()
	if closeOnly && !ended && q.ans.size > page {
		waitProduced(x, page+1)
	}
	closed := time.Now()
	x.Close()
	if !closeOnly {
		cancel()
	}
	if ended {
		// Err is final once the results have ended on their own.
		if err := x.Err(); err != nil {
			out.err = err
			return out
		}
	}
	if err := e.waitReleased(before); err != nil {
		out.err = err
		// End the context too, so the next query starts from a clean
		// process.
		cancel()
		if err := e.waitReleased(before); err != nil {
			out.err = fmt.Errorf("%w; after ending the context too: %v", out.err, err)
		}
		return out
	}
	out.done, out.release = time.Since(start), time.Since(closed)
	if err := q.ans.check(rows, page); err != nil {
		out.err = fmt.Errorf("%w: %v", errWrongAnswer, err)
	}
	return out
}

// lastQuery names the query the client started last, for the message of
// an aborted run.
var lastQuery atomic.Pointer[string]

// closeOnly reports whether the client closes q without ending its
// context (see workload.closeOnly).
func (e *env) closeOnly(q query) bool { return e.opts.workload.closeOnly && q.variant == 1 }

// waitProduced waits until the engine has produced n results, the client
// having read fewer, or for at most ten seconds. After it returns, the
// engine holds a row the client will not read.
func waitProduced(x *core.Execution, n int) {
	deadline := time.Now().Add(10 * time.Second)
	for len(x.Recorder.ResultTimes()) < n && time.Now().Before(deadline) {
		time.Sleep(200 * time.Microsecond)
	}
}

// knownFault reports whether a failed query is one of the two engine faults
// the benchmark keeps as failed operations (README.md, "Known faults"):
//   - serve-warm: Discover 8.1 and 8.4 return wrong answers, because the
//     shared cache merges blank nodes of documents cached by different
//     queries;
//   - first-page-rtt: a query closed without ending its context, and whose
//     answer is longer than the page, leaves its result goroutine blocked.
func (e *env) knownFault(q query, err error) bool {
	w := e.opts.workload
	switch {
	case w.serve:
		return errors.Is(err, errWrongAnswer) && (q.name == "Discover 8.1" || q.name == "Discover 8.4")
	case w.closeOnly:
		return errors.Is(err, errNotReleased) && e.closeOnly(q) && q.ans.size > w.page
	}
	return false
}

// measure runs the given number of whole passes of the mix.
func (e *env) measure(passes int, seed int64) (*phase, error) {
	ph := &phase{}
	rng := rand.New(rand.NewSource(seed + 1))
	podBefore, err := e.pods.stats()
	if err != nil {
		return nil, err
	}
	stopHeap := sampleHeapPeak(&ph.heapPeak)
	rtBefore := readRuntime()
	cpuBefore := cpuNanos()
	for n := 0; n < passes; n++ {
		e.pass(rng, func(q query, out outcome) {
			ph.queries++
			if out.err != nil {
				ph.failed = append(ph.failed, q.name+": "+out.err.Error())
				if !e.knownFault(q, out.err) {
					ph.unknown++
				}
				return
			}
			ph.busy += out.done
			ph.release = max(ph.release, out.release)
			ph.latencies = append(ph.latencies, ms(out.latency))
			if out.hasTTFR {
				ph.ttfrs = append(ph.ttfrs, ms(out.ttfr))
			}
		})
	}
	ph.cpuNanos = cpuNanos() - cpuBefore
	rtAfter := readRuntime()
	stopHeap()
	ph.allocs = rtAfter.allocs - rtBefore.allocs
	ph.gcCycles = rtAfter.gcCycles - rtBefore.gcCycles
	ph.gcCPU = rtAfter.gcCPU - rtBefore.gcCPU
	ph.busyCPU = rtAfter.busyCPU - rtBefore.busyCPU
	podAfter, err := e.pods.stats()
	if err != nil {
		return nil, err
	}
	ph.pod = podStats{
		Requests: podAfter.Requests - podBefore.Requests,
		CPUNanos: podAfter.CPUNanos - podBefore.CPUNanos,
	}
	return ph, nil
}

// endToEnd turns a measured phase into the end-to-end metrics.
func endToEnd(ph *phase, setupS float64) map[string]metric {
	n := float64(ph.queries)
	ok := float64(len(ph.latencies))
	return map[string]metric{
		"setup_s":                 {setupS, "s"},
		"qps":                     {ok / ph.busy.Seconds(), "1/s"},
		"latency_geomean_ms":      {geomean(ph.latencies), "ms"},
		"ttfr_mean_ms":            {mean(ph.ttfrs), "ms"},
		"engine_cpu_ms_per_query": {float64(ph.cpuNanos) / 1e6 / n, "ms"},
		"alloc_mb_per_query":      {float64(ph.allocs) / (1 << 20) / n, "MiB"},
		"live_heap_peak_mb":       {float64(ph.heapPeak) / (1 << 20), "MiB"},
		"pod_requests_per_query":  {float64(ph.pod.Requests) / n, "count"},
	}
}

// engineGoroutines returns the stacks of the goroutines that run engine
// code, keyed by goroutine id. The dump buffer is reused, so the check adds
// next to nothing to the allocations measured.
func (e *env) engineGoroutines() map[string]string {
	if e.stacks == nil {
		e.stacks = make([]byte, 1<<20)
	}
	n := runtime.Stack(e.stacks, true)
	for n == len(e.stacks) {
		e.stacks = make([]byte, 2*len(e.stacks))
		n = runtime.Stack(e.stacks, true)
	}
	var out map[string]string
	for dump := e.stacks[:n]; len(dump) > 0; {
		var g []byte
		g, dump, _ = bytes.Cut(dump, []byte("\n\n"))
		if !bytes.Contains(g, []byte("ltqp/internal/")) {
			continue
		}
		if out == nil {
			out = map[string]string{}
		}
		id := bytes.Fields(g)[1] // "goroutine <id> [state]:"
		out[string(id)] = string(g)
	}
	return out
}

// waitReleased waits until every engine goroutine started since before has
// ended, and fails if one is still there after releaseTimeout.
func (e *env) waitReleased(before map[string]string) error {
	deadline := time.Now().Add(releaseTimeout)
	for sleep := 100 * time.Microsecond; ; sleep = min(2*sleep, 20*time.Millisecond) {
		var left []string
		for id, stack := range e.engineGoroutines() {
			if _, ok := before[id]; !ok {
				left = append(left, stack)
			}
		}
		if len(left) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			sort.Strings(left)
			return fmt.Errorf("%w: %d engine goroutines remain after Close, e.g. %s",
				errNotReleased, len(left), strings.ReplaceAll(left[0], "\n", " | "))
		}
		time.Sleep(sleep)
	}
}

// queryTimeout bounds one query. The slowest query of the mix takes about
// 2 s on a 2-vCPU VM; one that runs into the timeout fails.
const queryTimeout = 30 * time.Second

// releaseTimeout is how long the release check waits for the engine's
// goroutines to end after Close. The slowest wind-down of a passing query
// is far shorter: tens of milliseconds (see README.md, "Checks").
const releaseTimeout = 500 * time.Millisecond

type runtimeSample struct {
	allocs, gcCycles uint64
	gcCPU, busyCPU   float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocs:   s[0].Value.Uint64(),
		gcCycles: s[1].Value.Uint64(),
		gcCPU:    s[2].Value.Float64(),
		busyCPU:  s[3].Value.Float64() - s[4].Value.Float64(),
	}
}

// sampleHeapPeak tracks the largest live heap seen until the returned stop
// function is called: the heap marked live by a garbage collection, so the
// figure does not depend on when collections happen to run.
func sampleHeapPeak(peak *uint64) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > *peak {
				*peak = v
			}
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile returns the q-quantile of xs, interpolating linearly between
// the closest ranks; it is 0 when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean returns the geometric mean of xs, which must be positive; it is
// 0 when xs is empty.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logs float64
	for _, x := range xs {
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs)))
}
