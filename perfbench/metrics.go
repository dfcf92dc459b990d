package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics carry no bound.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd lists what a researcher running a campaign sees: whether it
// finishes quickly (wall, CPU, throughput), fits on a shared machine
// (heap, allocation), and how long the process takes to get ready
// (setup). The list must match BENCHMARK.json (checked by a test).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"req_per_wall_s", "1/s", "higher", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"peak_heap_mib", "MiB", "lower", 0.20},
	{"alloc_mib", "MiB", "lower", 0.10},
}

// buckets are the profile attribution targets, in report order. Every
// CPU sample lands in exactly one (see classify).
var buckets = []string{
	"simtime.events.self_s", "simtime.psserver.self_s", "sched.self_s",
	"exper.entry.self_s", "exper.arrivals.self_s", "tenancy.self_s",
	"exper.digest.self_s", "quantile.self_s", "exper.shard.self_s",
	"exper.faults.self_s", "exper.elastic.self_s", "cluster.self_s", "fpga.self_s",
	"exper.engine.self_s", "runtime.gc.self_s", "runtime.alloc.self_s",
	"runtime.other.self_s", "other.self_s",
}

// perLayer lists the traced run's metrics: spans around the
// benchmark's own calls, profile buckets, counts from the public
// result structs, and parallel-efficiency and tracing-cost ratios.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"setup.registry_s", "s", "lower", 0},
		{"setup.build_s", "s", "lower", 0},
		{"exper.parse_s", "s", "lower", 0},
		{"exper.run_s", "s", "lower", 0},
	}
	for _, b := range buckets {
		defs = append(defs, metricDef{b, "s", "lower", 0})
	}
	return append(defs,
		metricDef{"exper.offered", "count", "higher", 0},
		metricDef{"exper.completed", "count", "higher", 0},
		metricDef{"exper.cells", "count", "higher", 0},
		metricDef{"sched.decisions", "count", "higher", 0},
		metricDef{"sched.to_x86", "count", "lower", 0},
		metricDef{"sched.to_arm", "count", "lower", 0},
		metricDef{"sched.to_fpga", "count", "higher", 0},
		metricDef{"sched.reconfig_useful_ratio", "ratio", "higher", 0},
		metricDef{"sched.reconfig_attempts", "count", "lower", 0},
		metricDef{"fpga.reconfigs", "count", "lower", 0},
		metricDef{"exper.faults.retried", "count", "lower", 0},
		metricDef{"exper.elastic.shed", "count", "lower", 0},
		metricDef{"par.shards", "count", "higher", 0},
		metricDef{"par.cpu_per_wall", "ratio", "higher", 0},
		metricDef{"par.wall_p1_s", "s", "lower", 0},
		metricDef{"par.wall_p2_s", "s", "lower", 0},
		metricDef{"par.speedup", "ratio", "higher", 0},
		metricDef{"runtime.gc_cycles", "count", "lower", 0},
		metricDef{"trace.overhead_frac", "ratio", "lower", 0},
	)
}()

// metricValue is one reported figure with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quartiles returns the first quartile, median and third quartile of
// xs exactly as Python's statistics.quantiles(xs, n=4) computes them
// (the default exclusive method), falling back to the median for fewer
// than two values.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	med = median(s)
	if len(s) < 2 {
		return med, med, med
	}
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), med, at(3)
}

// spread is the interquartile distance of xs as a share of its median
// (0 when the median is 0).
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
