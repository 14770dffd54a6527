package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ltqp/internal/experiments"
	"ltqp/internal/simenv"
	"ltqp/internal/solidbench"
)

func TestMain(m *testing.M) {
	// The benchmark starts its pod process from its own executable; under
	// test that is this test binary.
	if spec := os.Getenv(podEnv); spec != "" {
		if err := servePods(spec); err != nil {
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

// The generator-derived answers agree with the repository's ground truth
// for the shapes it covers.
func TestReferenceAnswersMatchGroundTruth(t *testing.T) {
	env := simenv.New(solidbench.SmallConfig())
	defer env.Close()
	for _, shape := range []int{1, 6} {
		for variant := 1; variant <= 6; variant++ {
			got := referenceAnswer(env.Dataset, shape, variant).size
			if want := experiments.GroundTruth(env, shape, variant); got != want {
				t.Errorf("Discover %d.%d: %d rows, ground truth %d", shape, variant, got, want)
			}
		}
	}
}

func TestAnswerCheck(t *testing.T) {
	a := newAnswer("x")
	a.rows = map[string]int{"a": 2, "b": 1}
	a.size = 3
	for _, tc := range []struct {
		rows []string
		page int
		ok   bool
	}{
		{[]string{"a", "b", "a"}, 0, true},
		{[]string{"a", "b"}, 0, false},
		{[]string{"a", "a", "a"}, 0, false},
		{[]string{"b", "a"}, 2, true},
		{[]string{"b", "b"}, 2, false},
		{[]string{"a", "b", "a"}, 10, true},
		{[]string{"a"}, 10, false},
	} {
		if err := a.check(tc.rows, tc.page); (err == nil) != tc.ok {
			t.Errorf("check(%v, page %d) = %v, want ok=%v", tc.rows, tc.page, err, tc.ok)
		}
	}
}

// A run of BENCHMARK.json's length attempts the operations README.md
// records, whatever the engine's speed.
func TestPassesPerRun(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		RunSeconds float64 `json:"run_seconds"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"discover-cold": 1, "first-page-rtt": 2, "serve-warm": 6}
	for _, w := range workloads {
		if got := w.passes(spec.RunSeconds); got != want[w.name] {
			t.Errorf("%s: %d passes in %v s, want %d", w.name, got, spec.RunSeconds, want[w.name])
		}
	}
}

// Each workload, run for one pass on a small dataset, emits every metric
// named in BENCHMARK.json with its unit, untraced and traced, and fails
// exactly on the known engine faults that show on that dataset: on
// first-page-rtt, the queries closed without ending their context whose
// answer is longer than the page. The shared-cache fault needs the full
// dataset (TestServeWarmFailsOnlyDiscover8).
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("starts pod processes")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	data := podParams{Persons: 6, Seed: 42, Small: true}
	expected := map[string][]string{"first-page-rtt": {"Discover 2.1", "Discover 8.1"}}
	for _, sw := range spec.Workloads {
		w, ok := findWorkload(sw.Name)
		if !ok {
			t.Fatalf("unknown workload %q", sw.Name)
		}
		w.delay = min(w.delay, time.Millisecond)
		for _, traced := range []bool{false, true} {
			res, err := run(options{
				workload: w,
				seed:     1,
				trace:    traced,
				data:     data,
				setups:   1,
				spansOut: filepath.Join(t.TempDir(), "spans.json"),
			})
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (traced %v): %d metrics, BENCHMARK.json names %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s (traced %v): metric %s = %+v, want unit %s", w.name, traced, m.Name, got, m.Unit)
				}
			}
			checkFailures(t, w.name, res, expected[w.name])
		}
	}
}

// On the benchmark's own dataset, serve-warm fails exactly on Discover 8.1
// and 8.4, whose answers the shared cache's blank-node labels corrupt.
func TestServeWarmFailsOnlyDiscover8(t *testing.T) {
	if testing.Short() {
		t.Skip("starts pod processes")
	}
	w, _ := findWorkload("serve-warm")
	res, err := run(options{workload: w, seed: 1, data: podParams{Persons: w.persons, Seed: 42}, setups: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkFailures(t, w.name, res, []string{"Discover 8.1", "Discover 8.4"})
}

// checkFailures asserts that one pass of the mix was attempted, that every
// failure is a known fault, and that the failed queries are exactly want.
func checkFailures(t *testing.T, workload string, res *result, want []string) {
	t.Helper()
	var failed []string
	for _, f := range res.failures {
		name, _, _ := strings.Cut(f, ": ")
		failed = append(failed, name)
	}
	if !res.Correct || res.Attempted != 32 || res.Failed != len(res.failures) ||
		strings.Join(failed, ",") != strings.Join(want, ",") {
		t.Errorf("%s: correct %v, attempted %d, failed %d: %q; want the failures %q",
			workload, res.Correct, res.Attempted, res.Failed, res.failures, want)
	}
}
