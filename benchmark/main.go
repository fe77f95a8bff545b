// Command benchmark is the repository's benchmark: five named
// workloads across the DES and live planes, ten end-to-end metrics and
// an outside-in per-layer trace. README.md in this directory has the
// definitions; BENCHMARK.json at the repository root has the contract.
//
//	go run ./benchmark -seed 1                       # every workload, one JSON document
//	go run ./benchmark -seed 1 -trace                # plus the traced run and per-layer metrics
//	go run ./benchmark -seed 1 -repeat 3             # run-to-run spread against the bounds
//	go run ./benchmark --workload wire_paced --seed 7 --seconds 10 --trace 0
//
// With -workload the last line of standard output is the driver's
// result object. The benchmark imports internal/* only to drive it and
// computes every percentile and ratio itself.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// sizes are the workload dimensions that do not come from the command
// line; the smoke tests shrink them.
type sizes struct {
	setups         int           // least set-ups per run; setup_s is their median
	setupBudget    time.Duration // cheap set-ups are repeated for this long
	fleetDevices   int
	fleetMinRuns   int
	suiteMinPasses int
	pacedRate      float64       // wire_paced frames/s over both connections
	wireWarm       time.Duration // wire_paced, wire_closed
	soakDevices    int
	soakWarm       time.Duration
	soakTick       time.Duration // controller tick, and so the Snapshot refresh period
	probeRate      float64       // soak_fleet latency probe, frames/s
	driverTime     time.Duration // per timed layer driver
}

func defaultSizes() sizes {
	return sizes{
		setups:         15,
		setupBudget:    150 * time.Millisecond,
		fleetDevices:   20000,
		fleetMinRuns:   2,
		suiteMinPasses: 3,
		pacedRate:      2000,
		wireWarm:       2 * time.Second,
		soakDevices:    2000,
		soakWarm:       8 * time.Second,
		soakTick:       time.Second,
		probeRate:      200,
		driverTime:     150 * time.Millisecond,
	}
}

// runOpts is one workload run's input.
type runOpts struct {
	seed    uint64
	seconds float64
	rec     *recorder // nil when tracing is off
	size    sizes
}

func (o runOpts) window() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// maxSetups caps the repetitions of a set-up that takes microseconds.
const maxSetups = 300

// timeSetups builds and tears down the workload's rig at least
// size.setups times, and for size.setupBudget if it is cheap, and
// returns each build's seconds. A set-up of a few hundred microseconds
// swings by a factor of five from one try to the next on a shared
// host; its median needs hundreds of tries to hold still.
func (o runOpts) timeSetups(build func() (teardown func(), err error)) ([]float64, error) {
	var secs []float64
	start := time.Now()
	for len(secs) < o.size.setups || (time.Since(start) < o.size.setupBudget && len(secs) < maxSetups) {
		t := time.Now()
		teardown, err := build()
		if err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(t).Seconds())
		teardown()
	}
	return secs, nil
}

// result is one workload run's output.
type result struct {
	Workload  string              `json:"workload"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Failures  []string            `json:"failures,omitempty"`
	E2E       metricSet           `json:"end_to_end"`
	Layer     metricSet           `json:"per_layer,omitempty"`
	Overhead  metricSet           `json:"tracing_overhead,omitempty"`
	Spans     map[string]spanStat `json:"spans,omitempty"`
	Info      map[string]any      `json:"info"`

	counts layerCounts
}

func newResult(name string) *result {
	return &result{Workload: name, E2E: metricSet{}, Layer: metricSet{}, Info: map[string]any{}}
}

func (r *result) failN(n int64, what string) {
	r.Failed += n
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf("%d × %s", n, what))
	}
}

func (r *result) fail(what string) { r.failN(1, what) }

func (r *result) check(where string, bad ...string) {
	for _, b := range bad {
		r.fail(where + ": " + b)
	}
}

// abort marks a run that could not be carried out at all.
func (r *result) abort(err error) *result {
	r.Attempted = 1
	r.fail(err.Error())
	return r
}

// tail reports the upper end of the workload's latency sample, which
// is too noisy on a shared sandbox to gate.
func (r *result) tail(sorted []float64) {
	r.Layer.set("latency.p99_ms", percentile(sorted, 0.99), "ms")
	r.Layer.set("latency.p999_ms", percentile(sorted, 0.999), "ms")
	r.Layer.set("latency.max_ms", percentile(sorted, 1), "ms")
}

type workload struct {
	name string
	why  string
	run  func(runOpts) *result
}

// workloads is the fixed set; the one-line reasons are repeated in
// BENCHMARK.json and expanded in README.md.
var workloads = []workload{
	{"fleet_tablev", "flat fleet DES on a saturated server: timing wheel, barrier merge, TransferAt walk and the batcher's shed path", fleetTablev},
	{"paper_suite", "event-driven device DES behind every paper figure: plain heap, event-chained SendTo and the batcher's complete path", paperSuite},
	{"wire_paced", "open loop, 29 KB frames far below capacity: per-byte cost, latency and CPU per frame carry the signal", wirePaced},
	{"wire_closed", "closed loop, 64 B frames at capacity: per-message cost, where payload size is irrelevant", wireClosed},
	{"soak_fleet", "loadgen -> proxy -> server, overloaded by construction: engine stepping, mux, proxy pumps and the live shed path", soakFleet},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// contractLine is the driver's result object.
type contractLine struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// normalizeArgs lets "-trace" stand alone (this command's own form)
// or be followed by 0 or 1 (the driver's form).
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "run one workload and print the driver's result line (default: all, as one document)")
	seed := fs.Uint64("seed", 1, "feeds every DES seed, loadgen seed, proxy seed and generator phase")
	seconds := fs.Float64("seconds", 10, "measured seconds per workload")
	trace := fs.Bool("trace", false, "traced run: spans, CPU profile, layer drivers, per-layer metrics")
	repeat := fs.Int("repeat", 1, "run the whole set this many times and check the spread of each gated metric")
	traceDir := fs.String("traceout", ".bench_build", "directory the traced run writes its spans to")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if *seconds <= 0 || *repeat < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds and -repeat must be positive")
		return 2
	}
	// One process, two Ps: the sandbox has two cores, and a fixed
	// value keeps runs on bigger hosts comparable.
	runtime.GOMAXPROCS(2)
	o := runOpts{seed: *seed, seconds: *seconds, size: defaultSizes()}

	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		var res *result
		if *trace {
			res = runTraced(w, o, *traceDir)
		} else {
			res = w.run(o)
		}
		printJSON(os.Stdout, res, true)
		line := contractLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.E2E}
		if *trace {
			line.Metrics = res.Layer
		}
		printJSON(os.Stdout, line, false)
		return 0
	}
	return report(o, *trace, *repeat, *traceDir)
}

// document is the all-workloads report.
type document struct {
	Seed      uint64      `json:"seed"`
	Seconds   float64     `json:"seconds"`
	Workloads []*result   `json:"workloads"`
	Traced    []*result   `json:"traced,omitempty"`
	Spread    []spreadRow `json:"spread,omitempty"`
}

// spreadRow is one gated metric's run-to-run spread on one workload.
type spreadRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Values   []float64 `json:"values"`
	Spread   float64   `json:"spread"`
	Bound    float64   `json:"bound"`
	Excess   bool      `json:"excess"`
}

// report runs every workload (repeat times), prints one document, and
// exits non-zero on a failed output check or, with -repeat, on a
// spread over its bound.
func report(o runOpts, trace bool, repeat int, traceDir string) int {
	doc := document{Seed: o.seed, Seconds: o.seconds}
	values := map[string][]float64{}
	code := 0
	for rep := 0; rep < repeat; rep++ {
		for i := range workloads {
			w := &workloads[i]
			fmt.Fprintf(os.Stderr, "benchmark: %s (run %d of %d)\n", w.name, rep+1, repeat)
			res := w.run(o)
			if res.Failed > 0 {
				code = 1
			}
			for _, m := range endToEnd {
				key := w.name + "\x00" + m.name
				values[key] = append(values[key], res.E2E[m.name].Value)
			}
			if rep > 0 {
				continue
			}
			doc.Workloads = append(doc.Workloads, res)
			if trace {
				fmt.Fprintf(os.Stderr, "benchmark: %s traced\n", w.name)
				tr := runTraced(w, o, traceDir)
				tr.Overhead = overhead(res, tr)
				if tr.Failed > 0 {
					code = 1
				}
				doc.Traced = append(doc.Traced, tr)
			}
		}
	}
	if repeat > 1 {
		for _, w := range workloads {
			for _, m := range endToEnd {
				if m.name == "setup_s" {
					continue // its spread is reported by the driver, never gated
				}
				vs := values[w.name+"\x00"+m.name]
				row := spreadRow{Workload: w.name, Metric: m.name, Values: vs, Bound: m.bound}
				if repeat >= 3 {
					row.Spread = quartileSpread(vs)
				} else {
					s := sortedCopy(vs)
					row.Spread = ratio(s[len(s)-1]-s[0], median(vs))
				}
				row.Excess = row.Spread > m.bound
				if row.Excess {
					code = 1
				}
				doc.Spread = append(doc.Spread, row)
			}
		}
	}
	printJSON(os.Stdout, doc, true)
	return code
}

// overhead is traced minus untraced for every end-to-end metric.
func overhead(plain, traced *result) metricSet {
	out := metricSet{}
	for _, m := range endToEnd {
		out.set(m.name, traced.Layer["traced."+m.name].Value-plain.E2E[m.name].Value, m.unit)
	}
	return out
}

func printJSON(f *os.File, v any, indent bool) {
	enc := json.NewEncoder(f)
	if indent {
		enc.SetIndent("", "  ")
	}
	if err := enc.Encode(v); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: encode:", err)
	}
}

// runTraced is the separate traced run: the same workload with spans
// on and a CPU profile, then the layer drivers, each a root span.
func runTraced(w *workload, o runOpts, traceDir string) *result {
	rec := newRecorder()
	o.rec = rec
	prof := startProfile()
	res := w.run(o)
	shares := prof.stop()

	unit := layerDrivers(o, rec)
	l := res.Layer
	for k, v := range unit {
		l[k] = v
	}
	for pkg, share := range shares {
		l.set("cpu_share."+pkg, share, "ratio")
	}
	for k, v := range res.counts.budget(unit) {
		l[k] = v
	}
	for _, m := range endToEnd {
		l.set("traced."+m.name, res.E2E[m.name].Value, m.unit)
	}
	l.set("trace.spans", float64(len(rec.spans)), "count")
	// Layers the workload does not exercise did no work: their counts
	// and shares read 0.
	for _, m := range perLayer {
		if _, ok := l[m.name]; !ok {
			l.set(m.name, 0, m.unit)
		}
	}
	res.Spans = selfTimes(rec.spans)

	if err := os.MkdirAll(traceDir, 0o755); err == nil {
		path := filepath.Join(traceDir, "trace-"+w.name+".json")
		if err := rec.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: write spans:", err)
		} else {
			res.Info["spans_file"] = path
		}
	}
	return res
}
