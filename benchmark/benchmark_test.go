package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"net"
	"os"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/netproto"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.95, 4.8}, {0.1, 1.4},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty sample: %v", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample: %v", got)
	}
	if got := median([]float64{9, 1, 5, 3}); !near(got, 4) {
		t.Errorf("median of unsorted input = %v", got)
	}
}

// The driver computes spreads with Python's statistics.quantiles(n=4);
// for 1..10 that gives quartiles 2.75 and 8.25 around a median of 5.5.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// Three values extrapolate past the ends exactly as Python does:
	// quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0].
	if got, want := quartileSpread([]float64{1, 2, 4}), 3.0/2; !near(got, want) {
		t.Errorf("spread of 3 = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{3}); got != 0 {
		t.Errorf("spread of 1 = %v", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "frame", Parent: -1, Start: 0, End: 100},
		{Name: "encode", Parent: 0, Start: 0, End: 10},
		{Name: "write", Parent: 0, Start: 10, End: 30},
		// Overlaps write by 10 and runs past its parent's end: only
		// 30..100 is new cover.
		{Name: "await", Parent: 0, Start: 20, End: 120},
		{Name: "decode", Parent: 3, Start: 90, End: 100},
		{Name: "frame", Parent: -1, Start: 200, End: 260},
	}
	got := selfTimes(spans)
	want := map[string]spanStat{
		"frame":  {Count: 2, TotalMs: 160e-6, SelfMs: 60e-6}, // first fully covered, second has no children
		"encode": {Count: 1, TotalMs: 10e-6, SelfMs: 10e-6},
		"write":  {Count: 1, TotalMs: 20e-6, SelfMs: 20e-6},
		"await":  {Count: 1, TotalMs: 100e-6, SelfMs: 90e-6},
		"decode": {Count: 1, TotalMs: 10e-6, SelfMs: 10e-6},
	}
	for name, w := range want {
		g := got[name]
		if g.Count != w.Count || !near(g.TotalMs, w.TotalMs) || !near(g.SelfMs, w.SelfMs) {
			t.Errorf("%s: got %+v, want %+v", name, g, w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("names: got %d, want %d", len(got), len(want))
	}
}

func TestRecorderOffIsNoop(t *testing.T) {
	var r *recorder
	id := r.begin("x", -1, 0)
	r.end(id)
	if id != -1 || r.on() || r.now() != 0 || r.add("y", -1, 0, 1, 2) != -1 {
		t.Fatal("nil recorder recorded something")
	}
}

func TestOpenScheduleIsFixed(t *testing.T) {
	cfg := wireCfg{conns: 2, rate: 2000, warm: 100 * time.Millisecond, measure: 400 * time.Millisecond, seed: 7}
	for conn := 0; conn < cfg.conns; conn++ {
		s := newOpenSchedule(cfg, conn)
		if s.period != time.Millisecond {
			t.Fatalf("period = %v", s.period)
		}
		if s.phase < 0 || s.phase >= s.period {
			t.Fatalf("phase %v outside one period", s.phase)
		}
		if s.frames < 499 || s.frames > 500 {
			t.Fatalf("frames = %d", s.frames)
		}
		if last := s.due(s.frames - 1); last >= cfg.warm+cfg.measure || last+s.period < cfg.warm+cfg.measure {
			t.Fatalf("last due %v does not end the schedule", last)
		}
		for k := 1; k < s.frames; k++ {
			if s.due(k)-s.due(k-1) != s.period {
				t.Fatalf("due instants not evenly spaced at %d", k)
			}
		}
		if again := newOpenSchedule(cfg, conn); again != s {
			t.Fatal("same seed, different schedule")
		}
	}
	other := cfg
	other.seed = 8
	if newOpenSchedule(other, 0).phase == newOpenSchedule(cfg, 0).phase {
		t.Error("phase does not depend on the seed")
	}
}

// slowServer answers one request at a time, each after a fixed delay,
// so a generator that waited for answers could not keep its rate.
func slowServer(t *testing.T, delay time.Duration) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			req, err := netproto.ReadRequest(conn)
			if err != nil {
				return
			}
			time.Sleep(delay)
			res := &netproto.Response{FrameID: req.FrameID, Label: int32(req.FrameID % 1000), BatchSize: 1}
			if netproto.WriteResponse(conn, res) != nil {
				return
			}
		}
	}()
	return ln.Addr().String(), func() {
		ln.Close()
		<-done
	}
}

// The open loop's due instants do not depend on send completion: a
// server that takes 20 ms per answer still receives the whole 200/s
// schedule, and the wait shows up as latency from the due instant.
func TestOpenLoopKeepsItsSchedule(t *testing.T) {
	addr, stop := slowServer(t, 20*time.Millisecond)
	defer stop()
	conns, err := dialAll(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := prepareWire(wireCfg{conns: 1, payload: 64, rate: 200, measure: 300 * time.Millisecond, timeScale: 1}, conns)
	g.drive()
	g.close()
	out := g.collect()
	if want := uint64(newOpenSchedule(g.cfg, 0).frames); out.attempted != want {
		t.Fatalf("sent %d frames, schedule has %d", out.attempted, want)
	}
	if out.failed() != 0 || out.answered != out.sent {
		t.Fatalf("failed %d, answered %d of %d", out.failed(), out.answered, out.sent)
	}
	// 60 frames at 20 ms each take 1.2 s to answer; the last waited
	// most of a second although it was sent on time.
	sorted := sortedCopy(out.latMs)
	if last := sorted[len(sorted)-1]; last < 500 {
		t.Errorf("slowest answer after %v ms: queueing delay is not counted from the due instant", last)
	}
}

func TestClosedLoopBoundsOutstanding(t *testing.T) {
	addr, stop := slowServer(t, 5*time.Millisecond)
	defer stop()
	conns, err := dialAll(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := prepareWire(wireCfg{conns: 1, payload: 64, window: 2, measure: 200 * time.Millisecond, timeScale: 1}, conns)
	g.drive()
	g.close()
	out := g.collect()
	if out.failed() != 0 {
		t.Fatalf("failed %d", out.failed())
	}
	// One answer per 5 ms, whatever the window: about 40 in 200 ms.
	if out.sent < 10 || out.sent > 60 {
		t.Errorf("sent %d frames in 200 ms against a 5 ms server", out.sent)
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "x", "--trace", "1", "--seed", "3"})
	want := []string{"--workload", "x", "-trace=1", "--seed", "3"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("driver form: %v", got)
	}
	got = normalizeArgs([]string{"-seed", "1", "-trace"})
	if !reflect.DeepEqual(got, []string{"-seed", "1", "-trace"}) {
		t.Errorf("bare form: %v", got)
	}
}

func TestBucketOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/simtime.(*Scheduler).Step":   "simtime",
		"repro/internal/scenario.(*Fleet).onSweep":   "scenario",
		"runtime.mallocgc":                           "runtime",
		"internal/runtime/syscall.Syscall6":          "syscall",
		"syscall.Syscall":                            "syscall",
		"internal/runtime/atomic.(*Uint32).Load":     "runtime",
		"math.archLog":                               "other",
		"repro/internal/netproto.ReadRequest":        "netproto",
		"repro/internal/loadgen.(*Engine).step":      "loadgen",
		"repro/internal/realnet.(*Server).batchLoop": "realnet",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

var spinSink float64

func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			spinSink += math.Sqrt(float64(i))
		}
	}
}

func TestProfileLeaves(t *testing.T) {
	p := startProfile()
	if !p.started {
		t.Skip("a CPU profile is already being taken")
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	leaves, err := leafFunctions(p.buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, n := range leaves {
		total += n
	}
	if total < 5 {
		t.Skipf("only %d samples in 300 ms", total)
	}
	if leaves["repro/benchmark.spin"] == 0 {
		t.Errorf("spin not among the leaves: %v", leaves)
	}
	var sum float64
	for _, s := range packageShares(leaves) {
		sum += s
	}
	if !near(sum, 1) {
		t.Errorf("shares sum to %v", sum)
	}
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in this package")

// contractJSON renders BENCHMARK.json from this package's tables.
func contractJSON(t *testing.T) []byte {
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []named  `json:"workloads"`
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: 10,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, named{w.name, w.why})
	}
	better := map[bool]string{true: "higher", false: "lower"}
	for _, m := range endToEnd {
		bound := m.bound
		doc.EndToEnd = append(doc.EndToEnd, metric{m.name, m.unit, better[m.higher], &bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, metric{m.name, m.unit, better[m.higher], nil})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// BENCHMARK.json is the contract the driver reads; the tables in this
// package are what the program reports. They must say the same thing.
func TestBenchmarkJSON(t *testing.T) {
	const path = "../BENCHMARK.json"
	want := contractJSON(t)
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the tables in metrics.go, layers.go and main.go; "+
			"run `go test ./benchmark -run TestBenchmarkJSON -update`", path)
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(workloads) > 8 || len(want) > 64<<10 {
		t.Error("more than the contract allows")
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[m.name] || len(m.name) > 64 || len(m.unit) > 16 {
			t.Errorf("metric %q: duplicate, or name or unit too long", m.name)
		}
		seen[m.name] = true
	}
}

func smokeSizes() sizes {
	return sizes{
		setups:         2,
		setupBudget:    time.Millisecond,
		fleetDevices:   200,
		fleetMinRuns:   2,
		suiteMinPasses: 1,
		pacedRate:      400,
		wireWarm:       50 * time.Millisecond,
		soakDevices:    40,
		soakWarm:       150 * time.Millisecond,
		soakTick:       100 * time.Millisecond,
		probeRate:      100,
		driverTime:     2 * time.Millisecond,
	}
}

// Every workload, scaled to well under a second, must run clean and
// report every end-to-end metric. No timing is asserted.
func TestWorkloadsSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			res := w.run(runOpts{seed: 3, seconds: 0.3, size: smokeSizes()})
			if res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("attempted %d, failed %d: %v", res.Attempted, res.Failed, res.Failures)
			}
			for _, m := range endToEnd {
				v, ok := res.E2E[m.name]
				if !ok || v.Unit != m.unit {
					t.Errorf("%s: missing or wrong unit (%+v)", m.name, v)
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value < 0 {
					t.Errorf("%s = %v", m.name, v.Value)
				}
			}
		})
	}
}

// The traced run must report exactly the per-layer metrics of the
// contract, whatever the workload.
func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	dir := t.TempDir()
	res := runTraced(findWorkload("wire_closed"), runOpts{seed: 3, seconds: 0.2, size: smokeSizes()}, dir)
	if res.Failed != 0 {
		t.Fatalf("failed %d: %v", res.Failed, res.Failures)
	}
	for _, m := range perLayer {
		if v, ok := res.Layer[m.name]; !ok || v.Unit != m.unit {
			t.Errorf("%s: missing or wrong unit (%+v)", m.name, v)
		}
	}
	if len(res.Layer) != len(perLayer) {
		names := map[string]bool{}
		for _, m := range perLayer {
			names[m.name] = true
		}
		for k := range res.Layer {
			if !names[k] {
				t.Errorf("%s reported but not in the contract", k)
			}
		}
	}
	if res.Spans["frame"].Count == 0 || res.Spans["await"].Count != res.Spans["frame"].Count {
		t.Errorf("frame spans: %+v", res.Spans)
	}
	if _, err := os.Stat(res.Info["spans_file"].(string)); err != nil {
		t.Errorf("spans file: %v", err)
	}
}
