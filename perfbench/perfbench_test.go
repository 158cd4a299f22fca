package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json and layers.md from the metric spec")

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndLimits(t *testing.T) {
	e2e, pl := endToEnd(), perLayer()
	if len(e2e) < 1 || len(e2e) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(e2e))
	}
	if len(pl) < 1 || len(pl) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(pl))
	}
	seen := map[string]bool{}
	for _, s := range append(append(e2e, pl...), details()...) {
		if !nameRE.MatchString(s.Name) {
			t.Errorf("metric name %q does not match %s", s.Name, nameRE)
		}
		if !unitRE.MatchString(s.Unit) {
			t.Errorf("%s: unit %q does not match %s", s.Name, s.Unit, unitRE)
		}
		if s.Better != "lower" && s.Better != "higher" {
			t.Errorf("%s: better %q", s.Name, s.Better)
		}
		if seen[s.Name] {
			t.Errorf("metric %q listed twice", s.Name)
		}
		seen[s.Name] = true
	}
	for _, s := range e2e {
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", s.Name, s.Bound)
		}
	}
	if s := specByName(e2e)["setup_s"]; s.Unit != "s" || s.Better != "lower" {
		t.Errorf("setup_s spec %+v", s)
	}
	for _, w := range workloadWhy {
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
}

// benchmarkFile is BENCHMARK.json's layout.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []e2eEntry   `json:"end_to_end"`
	PerLayer []layerEntry `json:"per_layer"`
}

type e2eEntry struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerEntry struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func wantBenchmarkFile() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: 30,
	}
	for _, w := range workloadWhy {
		f.Workloads = append(f.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.Name, w.Why})
	}
	for _, s := range endToEnd() {
		f.EndToEnd = append(f.EndToEnd, e2eEntry{s.Name, s.Unit, s.Better, s.Bound})
	}
	for _, s := range perLayer() {
		f.PerLayer = append(f.PerLayer, layerEntry{s.Name, s.Unit, s.Better})
	}
	return f
}

// layersDoc renders the per-layer metrics and the details with the
// end-to-end metric and workload each should move.
func layersDoc() string {
	var b strings.Builder
	b.WriteString("# Per-layer metrics and details\n\nGenerated from `metrics.go` by `go test -run TestSpecFiles -update`.\n" +
		"Every workload's `--trace 1` run reports every per-layer metric, measured on that\n" +
		"workload; a layer the workload does not exercise reads 0. The last column\n" +
		"names the end-to-end metric it should move.\n\n" +
		"| Metric | Unit | Better | Should move |\n|---|---|---|---|\n")
	for _, s := range perLayer() {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n", s.Name, s.Unit, s.Better, s.Moves)
	}
	b.WriteString("\n## Details\n\nOne workload reports each of these on a `# detail` line, not in the JSON\n" +
		"result: the end-to-end figures from an untraced run, the layer figures from a\n" +
		"traced one.\n\n" +
		"| Detail | Unit | Better | Workload | Should move |\n|---|---|---|---|---|\n")
	for _, s := range details() {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s |\n", s.Name, s.Unit, s.Better, s.Workload, s.Moves)
	}
	return b.String()
}

// TestSpecFiles checks that BENCHMARK.json and layers.md describe exactly
// the metrics and workloads the benchmark reports.
func TestSpecFiles(t *testing.T) {
	want := wantBenchmarkFile()
	if *update {
		b, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("../BENCHMARK.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("layers.md", []byte(layersDoc()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json is out of date with metrics.go; run go test -run TestSpecFiles -update")
	}
	doc, err := os.ReadFile("layers.md")
	if err != nil {
		t.Fatal(err)
	}
	if string(doc) != layersDoc() {
		t.Errorf("layers.md is out of date with metrics.go; run go test -run TestSpecFiles -update")
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i)
		}
		return out
	}
	if _, err := percentile(xs(99), 0.9); !errors.Is(err, errFewSamples) {
		t.Errorf("p90 of 99 samples: err %v, want errFewSamples", err)
	}
	if v, err := percentile(xs(100), 0.9); err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if _, err := percentile(nil, 0.5); !errors.Is(err, errFewSamples) {
		t.Errorf("p50 of no samples: err %v", err)
	}
	if v, err := percentile(xs(1), 0.5); err != nil || v != 1 {
		t.Errorf("p50 of one sample = %v, %v", v, err)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestRequestMixIsDeterministic(t *testing.T) {
	seq := func(seed, client uint64) ([]string, []string) {
		g := newMixGen(seed, client, 1000)
		var kinds, bodies []string
		for i := 0; i < 300; i++ {
			kind, req := g.next()
			b, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			kinds = append(kinds, kind)
			bodies = append(bodies, string(b))
		}
		return kinds, bodies
	}
	k1, b1 := seq(7, 0)
	k2, b2 := seq(7, 0)
	if !reflect.DeepEqual(k1, k2) || !reflect.DeepEqual(b1, b2) {
		t.Fatal("one seed gave two request sequences")
	}
	if _, b3 := seq(8, 0); reflect.DeepEqual(b1, b3) {
		t.Error("two seeds gave one request sequence")
	}
	if _, b4 := seq(7, 1); reflect.DeepEqual(b1, b4) {
		t.Error("two clients got one request sequence")
	}
	count := map[string]int{}
	for _, k := range k1 {
		count[k]++
	}
	if share := float64(count["repeat"]) / float64(len(k1)); share < 0.25 || share > 0.45 {
		t.Errorf("repeat share %.2f, want well away from 0.5", share)
	}
	if count["overlap"] == 0 || count["new"] == 0 {
		t.Errorf("mix lacks a kind: %v", count)
	}
}

func TestSeedsGiveDifferentPrograms(t *testing.T) {
	p, _ := workload.ByName("gzip")
	a, err := sim.ProgramFor(p, sim.Options{Insns: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.ProgramFor(p, sim.Options{Insns: 1000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Image(), b.Image()) && reflect.DeepEqual(a.Data, b.Data) {
		t.Error("seeds 1 and 2 generated the same program")
	}
}

// tinySizes shrink the workloads so a whole pass takes about a second.
var tinySizes = sizes{
	ScalarInsns: 2000, ServiceInsns: 1000,
	FaultInsns: 5000, FaultLanes: 2, SetupReps: 1,
}

// TestDigestRepeats runs each workload twice with one seed and
// once with another: one seed must give one digest and no failures.
// Another seed must give another digest, except on modes-scalar, whose
// seed only orders the cells of the profiles' own programs.
func TestDigestRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload three times")
	}
	for _, name := range []string{wModes, wService, wFault} {
		t.Run(name, func(t *testing.T) {
			digest := func(seed uint64, traced bool) string {
				e := &env{ctx: context.Background(), seed: seed, sz: tinySizes}
				if traced {
					e.tr = newTracer()
				}
				rep, err := workloads[name](e)
				if err != nil {
					t.Fatal(err)
				}
				if rep.failed > 0 || rep.attempted == 0 {
					t.Fatalf("seed %d: %d of %d failed: %v", seed, rep.failed, rep.attempted, rep.failures)
				}
				var own []metricSpec // what the workload itself reports
				for _, s := range endToEnd() {
					if s.Name != "ok_frac" && s.Name != "peak_rss_mb" {
						own = append(own, s)
					}
				}
				if err := checkNames(rep.metrics, own); err != nil {
					t.Errorf("seed %d: %v", seed, err)
				}
				d, err := digestOf(rep.cells)
				if err != nil {
					t.Fatal(err)
				}
				return d
			}
			d1 := digest(1, false)
			if d := digest(1, true); d != d1 {
				t.Errorf("seed 1 gave digests %s and %s", d1, d)
			}
			if d := digest(2, false); (d == d1) != (name == wModes) {
				t.Errorf("seeds 1 and 2 gave digests %s and %s", d1, d)
			}
		})
	}
}

func specByName(specs []metricSpec) map[string]metricSpec {
	out := make(map[string]metricSpec, len(specs))
	for _, s := range specs {
		out[s.Name] = s
	}
	return out
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/core.(*Core).selectIssue":       "core",
		"repro/internal/cache.(*Cache).Access":          "core",
		"repro/internal/service/api.(*Run).MarshalJSON": "service",
		"repro/internal/sim.RunContext.func1":           "sim",
		"repro/internal/backoff.Jitter":                 "",
		"main.(*env).setup":                             "bench",
		"runtime.gcBgMarkWorker":                        "",
		"encoding/json.(*encodeState).marshal":          "",
		"repro/internal/workload.(*gen).prologue":       "workload",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
