package main

import (
	"hash/fnv"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// latencies returns the op latencies of samples, sorted.
func latencies(samples []sample) []float64 {
	v := make([]float64, len(samples))
	for i, s := range samples {
		v[i] = s.ms
	}
	slices.Sort(v)
	return v
}

// percentile is the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)]
}

func rank(n int, p float64) int {
	// The epsilon keeps binary rounding of p (99.9) from moving the rank.
	k := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	return min(max(k, 0), n-1)
}

// tailLadder is the set of percentiles op_tail_ms may report: the usual
// reporting percentiles. Rungs between them (98, 99.5) would cap the
// samples beyond the tail at about twenty whatever the op count; without
// them a workload can put up to fifty beyond p95 or p99.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile picks the highest ladder percentile that still has at
// least ten samples beyond it among n, and returns it with that count.
func tailPercentile(n int) (p float64, beyond int) {
	for _, p := range tailLadder {
		if b := n - 1 - rank(n, p); b >= 10 {
			return p, b
		}
	}
	return 50, n - 1 - rank(n, 50)
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+system CPU time so far, across all threads:
// it includes the garbage collector and every worker goroutine.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (ru_maxrss, which Linux
// reports in KiB) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// memSnap is a reading of the heap and GC counters, or the difference of
// two readings.
type memSnap struct {
	mallocs, bytes uint64
	gcs            uint32
	gcCPU, usedCPU float64 // seconds, from runtime/metrics
}

var cpuMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := make([]metrics.Sample, len(cpuMetrics))
	for i, name := range cpuMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return memSnap{
		mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: ms.NumGC,
		gcCPU: f(0), usedCPU: f(1) - f(2),
	}
}

func (a memSnap) sub(b memSnap) memSnap {
	return memSnap{
		mallocs: a.mallocs - b.mallocs, bytes: a.bytes - b.bytes, gcs: a.gcs - b.gcs,
		gcCPU: a.gcCPU - b.gcCPU, usedCPU: a.usedCPU - b.usedCPU,
	}
}

// runtimeLayer is the runtime's share of a phase of n ops.
func runtimeLayer(m memSnap, n int) map[string]float64 {
	out := map[string]float64{
		"runtime.allocs_per_op":      float64(m.mallocs) / float64(n),
		"runtime.alloc_bytes_per_op": float64(m.bytes) / float64(n),
		"runtime.gc_per_op":          float64(m.gcs) / float64(n),
	}
	if m.usedCPU > 0 {
		out["runtime.gc_cpu_frac"] = m.gcCPU / m.usedCPU
	}
	return out
}

// derive is the seed of item i of kind tag under the workload seed: a
// positive 31-bit value, so it also fits every spec-string parser.
func derive(seed int64, tag string, i int) int64 {
	h := fnv.New64a()
	h.Write([]byte(tag))
	x := h.Sum64() ^ uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(i+1)*0xbf58476d1ce4e5b9
	// splitmix64 finaliser
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x&(1<<31-1)) + 1
}
