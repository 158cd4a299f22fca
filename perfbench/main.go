// Command perfbench is the repository's performance benchmark: it times
// the simulator end to end on three workloads and, in a separate traced
// run, layer by layer. Run it from the repository root through its
// launcher, which builds it first:
//
//	bash perfbench/run.sh --workload modes-scalar --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 30
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1, the same names on every
// workload. Each workload's own figures go on "# detail" lines before it.
// A traced run first repeats the untraced measurement, then measures again
// with spans and a CPU profile, and writes both under <out>/trace/. Any failed operation
// (a cell error, an oracle divergence, a silent fault escape, a non-2xx
// response, or a cached result that differs from the fresh one) makes
// the exit status 1. NOTES.md gives the design.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/sim"
)

// sizes are the workloads' input sizes. The benchmark runs defaultSizes;
// the self-tests shrink them.
type sizes struct {
	ScalarInsns  uint64        // per modes-scalar cell
	ServiceInsns uint64        // per service-mixed cell
	FaultInsns   uint64        // per fault-campaign cell
	FaultLanes   int           // seeds per fault-campaign rate
	SetupReps    int           // set-ups per run; setup_s is their median
	MinSetup     time.Duration // least total time spent setting up
}

var defaultSizes = sizes{
	ScalarInsns:  100_000, // a third of sim.DefaultInsns, so a run makes several rounds
	ServiceInsns: 20_000,  // the request size of the CI service smoke
	FaultInsns:   100_000,
	FaultLanes:   8,
	SetupReps:    5,
	MinSetup:     2 * time.Second,
}

// env is what a workload runs with: the inputs' seed, how long to
// measure, the input sizes, and the tracer (nil when untraced).
type env struct {
	ctx  context.Context
	seed uint64
	dur  time.Duration
	sz   sizes
	tr   *tracer

	setups []float64 // seconds of each set-up made
}

// report is a workload pass's outcome.
type report struct {
	attempted, failed int
	failures          []string
	notes             []string           // printed as "# " lines
	metrics           map[string]float64 // end to end
	layer             map[string]float64 // per layer, traced passes only
	detail            map[string]float64 // this workload's own figures, see details()
	cells             []cellResult       // every distinct simulated result, in a fixed order
	injected          uint64             // faults injected into the cells
}

// cellResult is one labelled simulated result.
type cellResult struct {
	label string
	res   sim.Result
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, layer: map[string]float64{}, detail: map[string]float64{}}
}

// fail counts one failed operation, keeping the first few messages.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// setup runs fn at least sz.SetupReps times and for at least minSetup,
// and returns the median wall time in seconds; the state the last call
// leaves is what the workload measures. Each call starts on a freshly
// collected heap, so no call pays for collecting an earlier one's garbage.
func (e *env) setup(fn func() error) (float64, error) {
	var ts []float64
	start := time.Now()
	for i := 0; i < e.sz.SetupReps || time.Since(start) < e.sz.MinSetup; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	e.setups = ts
	return median(ts), nil
}

// repeat calls fn until the measuring time has passed, at least atLeast
// times.
func (e *env) repeat(atLeast int, fn func(i int) error) error {
	start := time.Now()
	for i := 0; i < atLeast || time.Since(start) < e.dur; i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

// addCell records a distinct simulated result.
func (r *report) addCell(label string, res sim.Result) {
	r.cells = append(r.cells, cellResult{label, res})
}

// workloads maps each workload name to its measurement.
var workloads = map[string]func(*env) (*report, error){
	wModes:   runModesScalar,
	wService: runServiceMixed,
	wFault:   runFaultCampaign,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 30, "measuring time per pass")
	traced := fs.Int("trace", 0, "1 runs an untraced and a traced pass and reports per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for traces and profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames()
	} else if _, ok := workloads[*name]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s or all)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	res := result{Metrics: map[string]metricValue{}}
	for _, n := range names {
		prefix := ""
		if len(names) > 1 {
			prefix = n + "/" // metric names repeat across workloads
		}
		if err := runOne(n, prefix, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *out, &res, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", n, err)
			return 1
		}
	}
	res.Correct = res.Failed == 0
	if err := printJSON(stdout, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloadWhy {
		out = append(out, w.Name)
	}
	return out
}

// runOne measures one workload, prints its metrics by name and unit, and
// adds them to res.
func runOne(name, prefix string, seed uint64, dur time.Duration, traced bool, outDir string, res *result, stdout io.Writer) error {
	e := &env{ctx: context.Background(), seed: seed, dur: dur, sz: defaultSizes}
	rep, err := workloads[name](e)
	if err != nil {
		return err
	}
	rep.metrics["ok_frac"] = 1 - float64(rep.failed)/float64(rep.attempted)
	rep.metrics["peak_rss_mb"] = peakRSSMB()
	if err := checkNames(rep.metrics, endToEnd()); err != nil {
		return err
	}
	digest, err := digestOf(rep.cells)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "# %s seed=%d: %d operations attempted, %d failed (fail_frac %g)\n",
		name, seed, rep.attempted, rep.failed, float64(rep.failed)/float64(rep.attempted))
	for _, f := range rep.failures {
		fmt.Fprintf(stdout, "# FAILED: %s\n", f)
	}
	for _, n := range rep.notes {
		fmt.Fprintf(stdout, "# %s\n", n)
	}
	if q := quartiles(e.setups); len(e.setups) > 0 {
		fmt.Fprintf(stdout, "# %d set-ups, quartiles %.4g %.4g %.4g s\n", len(e.setups), q[0], q[1], q[2])
	}
	fmt.Fprintf(stdout, "# digest %s seed=%d %s\n", name, seed, digest)
	printDetails(stdout, name, rep.detail)
	report, specs := rep.metrics, endToEnd()
	res.Attempted += rep.attempted
	res.Failed += rep.failed
	if traced {
		trep, err := tracedPass(name, e, outDir)
		if err != nil {
			return err
		}
		res.Attempted += trep.attempted
		res.Failed += trep.failed
		for _, f := range trep.failures {
			fmt.Fprintf(stdout, "# FAILED (traced): %s\n", f)
		}
		if d, err := digestOf(trep.cells); err != nil {
			return err
		} else if d != digest {
			res.Failed++
			fmt.Fprintf(stdout, "# FAILED: traced digest %s differs from untraced\n", d)
		}
		u, t := rep.metrics[primary], trep.metrics[primary]
		trep.layer["trace.overhead_frac"] = (u - t) / u
		for _, s := range endToEnd() {
			if s.Name != "peak_rss_mb" && s.Name != "ok_frac" {
				fmt.Fprintf(stdout, "# traced %s = %g %s (untraced %g)\n", s.Name, trep.metrics[s.Name], s.Unit, rep.metrics[s.Name])
			}
		}
		if err := checkNames(trep.layer, perLayer()); err != nil {
			return err
		}
		printDetails(stdout, name, trep.detail)
		report, specs = trep.layer, perLayer()
	}
	for _, s := range specs {
		v := report[s.Name]
		fmt.Fprintf(stdout, "%s %s = %g %s\n", name, s.Name, v, s.Unit)
		res.Metrics[prefix+s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	return nil
}

// printDetails prints the workload's own figures, which the JSON result
// leaves out, in the order details() lists them.
func printDetails(stdout io.Writer, name string, got map[string]float64) {
	for _, s := range details() {
		if v, ok := got[s.Name]; ok && s.Workload == name {
			fmt.Fprintf(stdout, "# detail %s %s = %g %s\n", name, s.Name, v, s.Unit)
		}
	}
}

// tracedPass measures the workload again with spans and a CPU profile,
// writes both under outDir/trace/<workload>-seed<n>/, and returns the
// pass's report with its per-layer metrics filled in.
func tracedPass(name string, e *env, outDir string) (*report, error) {
	dir := filepath.Join(outDir, "trace", fmt.Sprintf("%s-seed%d", name, e.seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	profile := filepath.Join(dir, "cpu.pprof")
	f, err := os.Create(profile)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	te := *e
	te.tr = newTracer()
	gc0, cpu0 := gcCPU()
	a0 := heapAllocs()
	rep, runErr := workloads[name](&te)
	a1 := heapAllocs()
	gc1, cpu1 := gcCPU()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("writing CPU profile: %w", err)
	}
	if runErr != nil {
		return nil, runErr
	}
	if err := te.tr.write(dir); err != nil {
		return nil, err
	}
	stageShare, layerShare, err := profileShares(profile)
	if err != nil {
		return nil, err
	}
	L := rep.layer
	for k, v := range stageShare {
		L["core.stage_share."+k] = v
	}
	for k, v := range layerShare {
		L["cpu_share."+k] = v
	}
	L["go.gc_share"] = (gc1 - gc0) / (cpu1 - cpu0)
	L["go.allocs_per_op"] = float64(a1-a0) / float64(rep.attempted)
	cellLayers(rep)
	return rep, writeJSON(filepath.Join(dir, "end_to_end.json"), rep.metrics)
}

// cellLayers fills in the per-layer metrics that are simulated counts,
// summed over the workload's distinct cells.
func cellLayers(rep *report) {
	var committed, cycles, rni, lookups, pcHits, reuse, reuseDen, trbLookups, trbHits, skipped, trbCommitted, recov uint64
	for _, c := range rep.cells {
		r := c.res
		committed += r.Core.Committed
		cycles += r.Core.Cycles
		rni += r.Core.ReadyNotIssued
		recov += r.Core.FaultRecoveries
		if r.IRB != nil {
			lookups += r.IRB.Lookups
			pcHits += r.IRB.PCHits
			if r.Mode.Caps().IRBAllStreams {
				reuse += r.Core.IRBReuseHits
				reuseDen += r.Core.IRBReuseHits + r.Core.IssueSlotsUsed
			} else {
				hits := r.Core.IRBReuseHits + r.Core.TRBInstrSkipped
				reuse += hits
				reuseDen += hits + r.Core.DupFUExec
			}
		}
		if r.TRB != nil {
			trbLookups += r.TRB.Lookups
			trbHits += r.TRB.Hits
			skipped += r.Core.TRBInstrSkipped
			trbCommitted += r.Core.Committed
		}
	}
	L := rep.layer
	L["core.ipc"] = ratio(committed, cycles)
	L["core.ready_not_issued_per_cycle"] = ratio(rni, cycles)
	L["irb.pc_hit_rate"] = ratio(pcHits, lookups)
	L["irb.reuse_rate"] = ratio(reuse, reuseDen)
	L["trb.block_hit_rate"] = ratio(trbHits, trbLookups)
	L["trb.trace_reuse_rate"] = ratio(skipped, trbCommitted)
	L["fault.injected"] = float64(rep.injected)
	L["core.fault_recoveries"] = float64(recov)
}

// checkNames verifies that a pass reported exactly the metrics listed.
func checkNames(got map[string]float64, specs []metricSpec) error {
	want := map[string]bool{}
	for _, s := range specs {
		want[s.Name] = true
	}
	var missing, extra []string
	for n := range want {
		if _, ok := got[n]; !ok {
			missing = append(missing, n)
		}
	}
	for n := range got {
		if !want[n] {
			extra = append(extra, n)
		}
	}
	if len(missing)+len(extra) > 0 {
		sort.Strings(missing)
		sort.Strings(extra)
		return fmt.Errorf("metrics do not match the spec: missing %v, unexpected %v", missing, extra)
	}
	return nil
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kB
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printJSON(w io.Writer, res result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
