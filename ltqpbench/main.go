// Command ltqpbench is the end-to-end benchmark of the link-traversal
// engine: the SolidBench Discover mix over pods served by a separate
// process, as a single closed-loop client. See README.md.
//
//	ltqpbench --workload discover-cold --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the operations
// attempted and failed and the metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics of a traced run with --trace 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	failures  []string
}

func main() {
	if spec := os.Getenv(podEnv); spec != "" {
		if err := servePods(spec); err != nil {
			fmt.Fprintln(os.Stderr, "ltqpbench pods:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "workload: discover-cold, first-page-rtt or serve-warm")
	seed := flag.Int64("seed", 1, "seed of the query order")
	seconds := flag.Float64("seconds", 15, "length of the measured phase in seconds, turned into a fixed number of whole passes of the mix")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "ltqpbench: bad arguments (workload %q, trace %d, seconds %v)\n", *name, *trace, *seconds)
		os.Exit(2)
	}
	o := options{
		workload: w,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		data:     podParams{Persons: w.persons, Seed: 42},
		setups:   w.setups,
		spansOut: filepath.Join(".bench_build", "ltqpbench-spans-"+w.name+".json"),
	}
	// A run that is still going after runLimit has lost its measurement
	// to the host; it stops its pod process and fails instead of being
	// cut off from outside.
	time.AfterFunc(runLimit, func() {
		last := "none"
		if q := lastQuery.Load(); q != nil {
			last = *q
		}
		fmt.Fprintf(os.Stderr, "ltqpbench: run not finished after %v, aborted (last query started: %s)\n", runLimit, last)
		stopAll()
		os.Exit(1)
	})
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ltqpbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ltqpbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// runLimit bounds the time of one run of the benchmark binary. A run of
// --seconds 15 takes 25–50 s on a 2-vCPU VM.
const runLimit = 150 * time.Second

// run sets the workload up (o.setups times for setup_s; once for a traced
// run), measures it with the last set-up, and reports either the
// end-to-end or the traced metrics. The result is correct unless a query
// failed for another reason than a known engine fault (env.knownFault).
func run(o options) (*result, error) {
	var tr *tracer
	setups := o.setups
	if o.trace {
		tr = newTracer()
		setups = 1
	}
	var e *env
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if e != nil {
			e.pods.stop()
		}
		start := time.Now()
		var err error
		if e, err = setup(o, tr); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	defer e.pods.stop()

	var ms map[string]metric
	var ph *phase
	var err error
	if o.trace {
		ph, ms, err = tracedRun(e, tr)
	} else {
		ph, err = e.measure(o.workload.passes(o.seconds), o.seed)
		if err == nil {
			ms = endToEnd(ph, median(setupTimes))
		}
	}
	if err != nil {
		return nil, err
	}
	sort.Strings(ph.failed)
	for _, f := range ph.failed {
		fmt.Fprintln(os.Stderr, "failed:", f)
	}
	fmt.Fprintf(os.Stderr, "slowest release of a query that did not fail: %v\n", ph.release)
	if len(ph.latencies) == 0 {
		return nil, errors.New("no query succeeded")
	}
	return &result{Correct: ph.unknown == 0, Attempted: ph.queries, Failed: len(ph.failed), Metrics: ms, failures: ph.failed}, nil
}
