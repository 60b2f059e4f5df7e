package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// tailBeyond is how many samples the tail percentile leaves above it: the
// tail is the highest percentile that still has this many samples beyond.
const tailBeyond = 10

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail returns the sample with exactly tailBeyond samples above it, the
// percentile it sits at, and the sample count. Samples of at most
// tailBeyond values return their maximum at the 100th percentile.
func tail(xs []float64) (value, pct float64, n int) {
	n = len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := sortedCopy(xs)
	if n <= tailBeyond {
		return s[n-1], 100, n
	}
	return s[n-1-tailBeyond], 100 * float64(n-tailBeyond) / float64(n), n
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// procSample is a snapshot of the process-wide Go runtime costs.
type procSample struct {
	totalAlloc uint64
	mallocs    uint64
	gcCPU      float64 // cumulative GC CPU seconds
	totalCPU   float64 // cumulative CPU seconds available to the program
}

var procMetricNames = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readProc() procSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	samples := make([]metrics.Sample, len(procMetricNames))
	for i, n := range procMetricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	p := procSample{totalAlloc: m.TotalAlloc, mallocs: m.Mallocs}
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		p.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		p.totalCPU = samples[1].Value.Float64()
	}
	return p
}

// addProcLayer emits the proc.* per-layer metrics for the interval
// [from, to] in which placements tasks were placed.
func addProcLayer(out *outcome, from, to procSample, placements int) {
	out.addLayer("proc.alloc_mb", float64(to.totalAlloc-from.totalAlloc)/(1<<20), "MB")
	out.addLayer("proc.allocs_per_placement", float64(to.mallocs-from.mallocs)/float64(max(placements, 1)), "count")
	frac := 0.0
	if cpu := to.totalCPU - from.totalCPU; cpu > 0 {
		frac = (to.gcCPU - from.gcCPU) / cpu
	}
	out.addLayer("proc.gc_cpu_frac", frac, "frac")
}

// heapMB forces a collection and returns the live heap in MiB.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// addSubmitLatency emits the submit-latency metrics from samples split into
// groups in time order (equal wall-time windows, or simulated days). The
// p50 is the median of the groups' medians, so host contention confined to
// part of a run does not move it. The p90 is taken over every sample of
// the run: a grid-day day holds only ~70 samples, too few for a steady
// p90 of its own. Both are end-to-end metrics.
//
// The tail is taken over every sample too, as the highest percentile with
// tailBeyond samples beyond it; it is printed with that percentile and the
// sample count, but it is not an end-to-end metric: with about 5x10^4
// samples a run (wire-churn) it is the 11th slowest of them, a host
// scheduling stall, and with under 10^3 (grid-day) it lands among the
// days' few 5-15 ms stalls, so it spreads too far between runs of the same
// code to be gated (see PREDICTIONS.md).
func addSubmitLatency(out *outcome, groupsMs [][]float64) {
	var all, mids []float64
	for _, g := range groupsMs {
		if len(g) > 0 {
			mids = append(mids, median(g))
			all = append(all, g...)
		}
	}
	t, pct, n := tail(all)
	out.addE2E("submit_p50_ms", median(mids), "ms")
	out.addE2E("submit_p90_ms", quantile(all, 0.9), "ms")
	out.addReport("submit_tail_ms", t, "ms")
	out.addReport("submit_tail_pct", pct, "percentile")
	out.addReport("submit_samples", float64(n), "count")
}
