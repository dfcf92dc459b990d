package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"xartrek/internal/exper"
	"xartrek/internal/workloads"
)

var nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestMetricTables checks the metric names and limits, and that the
// tables perfbench reports from agree with BENCHMARK.json.
func TestMetricTables(t *testing.T) {
	if len(endToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, at most 16 allowed", len(endToEnd))
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(perLayer))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRe.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, nameRe)
		}
		if seen[d.Name] {
			t.Errorf("metric %q listed twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
	}
	for _, b := range buckets {
		if !seen[b] {
			t.Errorf("bucket %q is not a per-layer metric", b)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Bound > endToEnd[0].Bound {
			t.Errorf("%s: bound %v exceeds setup_s's", d.Name, d.Bound)
		}
	}
	if endToEnd[0] != (metricDef{"setup_s", "s", "lower", endToEnd[0].Bound}) {
		t.Errorf("first end-to-end metric is %+v, want setup_s in s, lower", endToEnd[0])
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, perfbench %d", len(bj.Workloads), len(workloadNames))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, perfbench %q", i, w.Name, workloadNames[i])
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d/%d metrics, perfbench %d/%d",
			len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bj.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, perfbench %+v", i, m, d)
		}
	}
	for i, m := range bj.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, perfbench %+v", i, m, d)
		}
	}
}

// smallSpec is a quick campaign touching the serving engine, the
// tenancy, fault and elastic runtimes and the sharded path.
const smallSpec = `{
  "name": "small",
  "cells": [
    {"name": "rack8", "kind": "serving", "mode": "xar-trek", "rate": 24, "duration": "300s",
     "topology": {"kind": "scale-out", "name": "rack8", "x86": 4, "arm": 4, "fpgas": 2},
     "admission": {"queue_cap": 4, "policy": "drop"},
     "faults": {"churn": [{"kind": "node", "targets": ["arm-01"], "mtbf": "30s", "mttr": "5s"}]}},
    {"name": "sharded", "kind": "serving", "mode": "xar-trek", "rate": 64, "duration": "300s",
     "topology": {"kind": "scale-out", "name": "rack32", "x86": 8, "arm": 24, "fpgas": 4},
     "options": {"latency_mode": "sketch", "shards": 4}}
  ]
}`

func runSmall(t *testing.T, seed int64) *exper.Report {
	t.Helper()
	apps, err := workloads.Registry()
	if err != nil {
		t.Fatal(err)
	}
	arts, err := exper.BuildArtifacts(apps)
	if err != nil {
		t.Fatal(err)
	}
	spec, _, err := parseSpec([]byte(smallSpec), seed)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := exper.RunCampaign(arts, *spec, exper.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestEveryProfileSampleLandsInABucket profiles a real campaign and
// checks that attribution accounts for every sample in a named bucket.
func TestEveryProfileSampleLandsInABucket(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		runSmall(t, defaultSeed)
	}
	pprof.StopCPUProfile()

	samples, err := decodeProfile(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("profile has no samples")
	}
	named := map[string]bool{}
	for _, b := range buckets {
		named[b] = true
	}
	var total float64
	for _, s := range samples {
		if len(s.Stack) == 0 {
			t.Errorf("sample without a stack")
		}
		if b := classify(s.Stack); !named[b] {
			t.Errorf("stack %v lands in unnamed bucket %q", s.Stack, b)
		}
		total += float64(s.CPUNs) / 1e9
	}
	got, err := attribute(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(buckets) {
		t.Errorf("attribution has %d buckets, want %d", len(got), len(buckets))
	}
	var sum float64
	for _, v := range got {
		sum += v
	}
	if math.Abs(sum-total) > 1e-9 {
		t.Errorf("buckets sum to %vs, samples to %vs", sum, total)
	}
	if got["simtime.events.self_s"] == 0 || got["exper.engine.self_s"] == 0 {
		t.Errorf("no time in the event core or the engine: %v", got)
	}
}

func TestClassify(t *testing.T) {
	f := func(fn, file string) frame { return frame{fn, file} }
	poisson := f("xartrek/internal/exper.(*poissonSource).draw", "xartrek/internal/exper/serving.go")
	cases := []struct {
		stack []frame
		want  string
	}{
		{[]frame{f("math/rand.(*Rand).ExpFloat64", "math/rand/exp.go"), poisson}, "exper.arrivals.self_s"},
		{[]frame{f("runtime.scanobject", "runtime/mgcmark.go"), f("runtime.gcDrain", "runtime/mgcmark.go")}, "runtime.gc.self_s"},
		{[]frame{f("runtime.gcWriteBarrier2", "runtime/asm_amd64.s"), poisson}, "runtime.gc.self_s"},
		{[]frame{f("runtime.mallocgc", "runtime/malloc.go"), poisson}, "runtime.alloc.self_s"},
		{[]frame{f("runtime.memmove", "runtime/memmove_amd64.s"), f("xartrek/internal/simtime.(*PSServer).submit", "xartrek/internal/simtime/psserver.go")}, "simtime.psserver.self_s"},
		{[]frame{f("internal/runtime/maps.(*Map).getWithKeySmall", "internal/runtime/maps/map.go"), f("xartrek/internal/core/sched.(*Server).DecideClass", "xartrek/internal/core/sched/sched.go")}, "sched.self_s"},
		{[]frame{f("xartrek/internal/simtime.(*eventHeap).siftDown", "xartrek/internal/simtime/eventheap.go")}, "simtime.events.self_s"},
		{[]frame{f("xartrek/internal/exper.NewPlatformTopo.func1", "xartrek/internal/exper/options.go")}, "sched.self_s"},
		{[]frame{f("xartrek/internal/exper.(*Platform).leastLoadedX86", "xartrek/internal/exper/process.go")}, "exper.entry.self_s"},
		{[]frame{f("xartrek/internal/exper.(*tenantSource).next", "xartrek/internal/exper/tenantrun.go")}, "exper.arrivals.self_s"},
		{[]frame{f("xartrek/internal/exper.(*tenantRun).observe", "xartrek/internal/exper/tenantrun.go")}, "tenancy.self_s"},
		{[]frame{f("xartrek/internal/exper.(*latDigest).add", "xartrek/internal/exper/latency.go")}, "exper.digest.self_s"},
		{[]frame{f("xartrek/internal/exper.mergeLatDigests", "xartrek/internal/exper/sharded.go")}, "exper.shard.self_s"},
		{[]frame{f("xartrek/internal/exper.(*faultRuntime).apply", "xartrek/internal/exper/faultrun.go")}, "exper.faults.self_s"},
		{[]frame{f("xartrek/internal/exper.runKnee", "xartrek/internal/exper/kneerun.go")}, "exper.elastic.self_s"},
		{[]frame{f("xartrek/internal/exper.runServingCore", "xartrek/internal/exper/serving.go")}, "exper.engine.self_s"},
		{[]frame{f("xartrek/internal/quantile.(*Sketch).Add", "xartrek/internal/quantile/quantile.go")}, "quantile.self_s"},
		{[]frame{f("xartrek/internal/cluster.(*Node).Load", "xartrek/internal/cluster/cluster.go")}, "cluster.self_s"},
		{[]frame{f("xartrek/internal/fpga.(*Fabric).CU", "xartrek/internal/fpga/fpga.go")}, "fpga.self_s"},
		{[]frame{f("xartrek/internal/par.ForEach.func1", "xartrek/internal/par/par.go")}, "other.self_s"},
		{[]frame{f("runtime.futex", "runtime/sys_linux_amd64.s"), f("runtime.schedule", "runtime/proc.go")}, "runtime.other.self_s"},
		{[]frame{f("syscall.Syscall", "syscall/syscall_linux.go")}, "other.self_s"},
		{[]frame{f("xartrek/perfbench.(*gcWatch).sample", "xartrek/perfbench/child.go")}, "other.self_s"},
		{nil, "other.self_s"},
	}
	for _, c := range cases {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// TestInvariantCheckerRejectsCorruptReport corrupts a real report one
// field at a time; each corruption must be caught.
func TestInvariantCheckerRejectsCorruptReport(t *testing.T) {
	rep := runSmall(t, 5)
	for i := range rep.Cells {
		if bad := checkCell(&rep.Cells[i]); len(bad) > 0 {
			t.Fatalf("clean cell %d rejected: %v", i, bad)
		}
	}
	corruptions := map[string]func(r *exper.ServingResult){
		"completed > offered": func(r *exper.ServingResult) { r.Completed = r.Offered + 1 },
		"p50 > p95":           func(r *exper.ServingResult) { r.P50 = r.P95 + 1 },
		"p95 > p99":           func(r *exper.ServingResult) { r.P99 = r.P95 - 1 },
		"decisions mismatch":  func(r *exper.ServingResult) { r.Sched.ToARM++ },
		"nothing offered":     func(r *exper.ServingResult) { r.Offered, r.Completed = 0, 0 },
	}
	for name, corrupt := range corruptions {
		c := rep.Cells[0]
		r := *c.Serving
		corrupt(&r)
		c.Serving = &r
		if bad := checkCell(&c); len(bad) == 0 {
			t.Errorf("%s: corrupted cell accepted", name)
		}
	}
	if bad := checkCell(&exper.CellResult{Kind: "serving"}); len(bad) == 0 {
		t.Error("cell without a serving result accepted")
	}
}

// TestVerifierCountsFailedCells checks the run's accounting: a
// digest that differs from the run's first report or from the
// recorded one, a violation and a process error each fail cells.
func TestVerifierCountsFailedCells(t *testing.T) {
	ok := &childResult{ReportSHA: "r", CellSHA: []string{"a", "b"}}
	v := &verifier{cells: 2, recorded: &workloadDigest{Report: "r", Cells: []string{"a", "b"}}}
	v.check(ok)
	v.check(&childResult{CellSHA: []string{"a", "x"}})
	v.check(&childResult{CellSHA: []string{"a", "b"}, Violations: map[int][]string{0: {"bad"}}})
	v.check(&childResult{Err: "boom"})
	if v.attempted != 8 || v.failed != 4 {
		t.Errorf("attempted %d failed %d, want 8 and 4", v.attempted, v.failed)
	}
	v = &verifier{cells: 2, recorded: &workloadDigest{Cells: []string{"a", "z"}}}
	v.check(ok)
	if v.failed != 1 {
		t.Errorf("digest mismatch against the record failed %d cells, want 1", v.failed)
	}
}

func TestDigestsRecordedForEveryWorkload(t *testing.T) {
	d, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	if d.Seed != defaultSeed {
		t.Errorf("digests recorded at seed %d, want %d", d.Seed, defaultSeed)
	}
	for _, w := range workloadNames {
		raw, err := specBytes(w)
		if err != nil {
			t.Fatal(err)
		}
		_, cells, err := parseSpec(raw, heldOutSeed)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		for _, c := range cells {
			if c.Seed != heldOutSeed {
				t.Errorf("%s: cell %q seed %d, want %d", w, c.Name, c.Seed, heldOutSeed)
			}
		}
		if got := len(d.Workloads[w].Cells); got != len(cells) {
			t.Errorf("%s: %d cell digests recorded, spec expands to %d cells", w, got, len(cells))
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values printed by Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 4}, 1, 2, 4},
		{[]float64{3, 1, 7, 5, 9}, 2, 5, 8},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	wall := metricDef{"wall_s", "s", "lower", 0.10}
	steady := func(base float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = base + 0.01*float64(i%3)
		}
		return xs
	}
	noisy := []float64{5, 7, 5, 7, 5, 7, 5, 7, 5, 7}
	for _, c := range []struct {
		name           string
		parent, change []float64
		want           string
	}{
		{"faster", steady(10), steady(8), "better"},
		{"slower", steady(10), steady(12), "worse"},
		{"same", steady(10), steady(10.05), "unchanged"},
		{"within bound", steady(10), steady(10.5), "unchanged"},
		{"too noisy", noisy, noisy, "unresolved"},
		{"noisy but far faster", noisy, []float64{3, 3, 3, 3, 3, 3, 3, 3, 3, 3}, "better"},
		{"noisy, every run faster", noisy, []float64{4.9, 4.9, 4.9, 4.9, 4.9, 4.9, 4.9, 4.9, 4.9, 4.9}, "unchanged"},
		{"few pairs", steady(10)[:3], steady(8)[:3], "unchanged"},
	} {
		if got := verdict(wall, c.parent, c.change); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestGCWatchRecordsPeakLiveHeap holds 16 MiB live across one GC cycle
// and releases it; the watch must report the peak, not the final heap.
func TestGCWatchRecordsPeakLiveHeap(t *testing.T) {
	const live = 16 << 20
	w := startGCWatch()
	keep := make([]byte, live)
	runtime.GC()
	for deadline := time.Now().Add(5 * time.Second); ; {
		w.mu.Lock()
		seen := w.peak
		w.mu.Unlock()
		if seen >= live {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no GC cycle observed with %d bytes live (peak %d)", live, seen)
		}
		time.Sleep(time.Millisecond)
	}
	runtime.KeepAlive(keep)
	runtime.GC()
	if peak := w.stop(); peak < live {
		t.Errorf("peak %d bytes, want at least %d", peak, live)
	}
}
