package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef names one metric of the contract in BENCHMARK.json. The
// table here and the JSON file are kept equal by TestBenchmarkJSON.
type metricDef struct {
	name, unit string
	higher     bool
	// bound is the share of the parent's median by which the metric
	// may worsen before a change counts as a regression (end-to-end
	// metrics only).
	bound float64
}

// endToEnd is what a user of either plane sees. Every workload
// reports every metric; README.md has the per-workload definitions.
var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"events_per_s", "1/s", true, 0.25},
	{"allocs_per_op", "count", false, 0.05},
	{"alloc_bytes_per_op", "B", false, 0.05},
	{"resident_bytes_per_device", "B", false, 0.10},
	{"goodput_fps", "1/s", true, 0.25},
	{"offload_p50_ms", "ms", false, 0.25},
	{"offload_p95_ms", "ms", false, 0.25},
	{"cpu_s_per_mframe", "s", false, 0.25},
	{"settled_ratio", "ratio", true, 0.05},
}

// value is one reported number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]value

func (m metricSet) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = value{Value: v, Unit: unit}
}

// percentile returns the p-quantile (0..1) of an ascending-sorted
// sample by linear interpolation between closest ranks. An empty
// sample yields 0.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	pos := p * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 0.5) }

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles of Python's
// statistics.quantiles(values, n=4) (the exclusive method), which is
// what the driver computes.
func quartileSpread(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := percentile(s, 0.5)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}

// usage is a snapshot of the process cost counters the end-to-end
// metrics are deltas of.
type usage struct {
	at             time.Time
	mallocs, bytes uint64
	cpu            time.Duration
}

// readUsage stops the world briefly (ReadMemStats); call it only at
// window boundaries.
func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{at: time.Now(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc, cpu: cpuTime()}
}

// cpuTime is the process's user+system CPU time (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap forces a collection and returns the bytes still reachable.
// It collects twice: sync.Pool contents survive one cycle.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// retained is the live heap that release frees: what the system under
// test was holding. Measuring it as a difference around the release
// keeps the runtime's own pools (goroutine and thread descriptors,
// which are never returned) out of the figure.
func retained(release func()) uint64 {
	before := liveHeap()
	release()
	if after := liveHeap(); before > after {
		return before - after
	}
	return 0
}

// delta is the cost of one measured window.
type delta struct {
	wall           time.Duration
	cpu            time.Duration
	mallocs, bytes uint64
}

func (u usage) since(start usage) delta {
	return delta{
		wall:    u.at.Sub(start.at),
		cpu:     u.cpu - start.cpu,
		mallocs: u.mallocs - start.mallocs,
		bytes:   u.bytes - start.bytes,
	}
}

func (d *delta) add(o delta) {
	d.wall += o.wall
	d.cpu += o.cpu
	d.mallocs += o.mallocs
	d.bytes += o.bytes
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// fnv folds values into an FNV-1a digest; digests are printed so two
// commits can be compared, never pinned.
type fnv uint64

func newFNV() fnv { return 1469598103934665603 }

func (h *fnv) mix(v uint64) {
	*h ^= fnv(v)
	*h *= 1099511628211
}
