package exper

import (
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"xartrek/internal/cluster"
	"xartrek/internal/tenancy"
)

// servingCampaignConfigs is the three-size campaign the acceptance
// criteria name: paper testbed, ~8 nodes, ~32 nodes with ≥2 FPGAs.
func servingCampaignConfigs() []ServingConfig {
	topos := []cluster.Topology{
		cluster.PaperTopology(),
		cluster.ScaleOutTopology("rack8", 4, 4, 2),
		cluster.ScaleOutTopology("rack32", 8, 24, 4),
	}
	var cfgs []ServingConfig
	for _, topo := range topos {
		for _, mode := range []Mode{ModeXarTrek, ModeVanillaX86} {
			cfgs = append(cfgs, ServingConfig{
				Topo:       topo,
				Mode:       mode,
				RatePerSec: 6,
				Duration:   30 * time.Second,
				Seed:       2021,
			})
		}
	}
	return cfgs
}

func TestRunServingSweepDeterministicAcrossGOMAXPROCS(t *testing.T) {
	arts := testArtifacts(t)
	cfgs := servingCampaignConfigs()
	sweep := func() []ServingResult {
		out, err := RunServingSweep(arts, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	var par1, par8 []ServingResult
	withGOMAXPROCS(1, func() { par1 = sweep() })
	withGOMAXPROCS(8, func() { par8 = sweep() })
	if !reflect.DeepEqual(par1, par8) {
		t.Fatalf("sweep differs between GOMAXPROCS=1 and 8:\n%v\n%v", par1, par8)
	}
	if len(par1) != len(cfgs) {
		t.Fatalf("results = %d, want %d", len(par1), len(cfgs))
	}
	// Repeating the sweep with the same seed is byte-identical.
	again := sweep()
	if !reflect.DeepEqual(par1, again) {
		t.Fatal("same-seed sweep diverged")
	}
	for i, r := range par1 {
		if r.Offered == 0 || r.Completed == 0 {
			t.Fatalf("config %d served nothing: %+v", i, r)
		}
		if r.P50 > r.P95 || r.P95 > r.P99 {
			t.Fatalf("config %d: percentiles not monotone: %+v", i, r)
		}
	}
}

func TestRunServingScaleOutAbsorbsOfferedLoad(t *testing.T) {
	arts := testArtifacts(t)
	run := func(topo cluster.Topology) ServingResult {
		r, err := RunServing(arts, ServingConfig{
			Topo: topo, Mode: ModeVanillaX86, RatePerSec: 8,
			Duration: 30 * time.Second, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	paper := run(cluster.PaperTopology())
	rack := run(cluster.ScaleOutTopology("rack8", 4, 4, 2))
	if paper.Offered != rack.Offered {
		t.Fatalf("offered diverged: %d vs %d (same seed)", paper.Offered, rack.Offered)
	}
	// At 8 req/s the single 6-core host saturates; four entry nodes
	// must complete more within the horizon and with a lower p99.
	if rack.Completed <= paper.Completed {
		t.Fatalf("rack8 completed %d, paper %d — scale-out did not help", rack.Completed, paper.Completed)
	}
	if rack.P99 >= paper.P99 {
		t.Fatalf("rack8 p99 %v not below paper %v", rack.P99, paper.P99)
	}
	if rack.MeanHostLoad >= paper.MeanHostLoad {
		t.Fatalf("rack8 host load %.1f not below paper %.1f", rack.MeanHostLoad, paper.MeanHostLoad)
	}
}

func TestRunServingTraceDriven(t *testing.T) {
	arts := testArtifacts(t)
	trace := []time.Duration{0, 0, time.Second, 2 * time.Second, 90 * time.Second}
	r, err := RunServing(arts, ServingConfig{
		Name: "trace", Topo: cluster.PaperTopology(), Mode: ModeVanillaX86,
		Duration: 60 * time.Second, Seed: 1, Trace: trace,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The offset at 90s lies past the horizon and is dropped.
	if r.Offered != 4 {
		t.Fatalf("offered = %d, want 4", r.Offered)
	}
	if r.Completed != 4 {
		t.Fatalf("completed = %d, want 4", r.Completed)
	}
	if r.Name != "trace" {
		t.Fatalf("name = %q", r.Name)
	}
}

func TestRunServingTraceUnsorted(t *testing.T) {
	arts := testArtifacts(t)
	run := func(topo cluster.Topology, shards int, trace []time.Duration) ServingResult {
		cfg := ServingConfig{
			Name: "unsorted", Topo: topo, Mode: ModeVanillaX86,
			Duration: 60 * time.Second, Seed: 1, Trace: trace,
		}
		cfg.Opts.Shards = shards
		r, err := RunServing(arts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// Lazy injection walks arrivals in time order; an out-of-order
	// trace must be reordered, not panic the simulator with a
	// schedule-in-the-past. The run is the run of the sorted trace,
	// field for field, and the caller's slice is left as it was.
	paper := cluster.PaperTopology()
	trace := []time.Duration{2 * time.Second, 0, time.Second, time.Second}
	unsorted := run(paper, 0, trace)
	if unsorted.Offered != 4 || unsorted.Completed != 4 {
		t.Fatalf("unsorted trace served %d/%d, want 4/4", unsorted.Completed, unsorted.Offered)
	}
	sorted := slices.Clone(trace)
	slices.Sort(sorted)
	if want := run(paper, 0, sorted); !reflect.DeepEqual(unsorted, want) {
		t.Fatalf("unsorted trace result %+v, sorted copy %+v", unsorted, want)
	}
	if trace[0] != 2*time.Second {
		t.Fatalf("caller's trace reordered: %v", trace)
	}
	// A sharded run deals the same time-ordered stream.
	rack := cluster.ScaleOutTopology("rack4", 2, 2, 1)
	whole, sharded := run(rack, 0, trace), run(rack, 2, trace)
	if sharded.Offered != whole.Offered {
		t.Fatalf("shards=2 offered %d, unsharded %d", sharded.Offered, whole.Offered)
	}
}

func TestRunServingRejectsBadConfigs(t *testing.T) {
	arts := testArtifacts(t)
	cases := []struct {
		cfg  ServingConfig
		want string
	}{
		{ServingConfig{Topo: cluster.PaperTopology(), Mode: ModeXarTrek, RatePerSec: 1}, "duration"},
		{ServingConfig{Topo: cluster.PaperTopology(), Mode: ModeXarTrek, Duration: time.Second}, "rate"},
		{ServingConfig{Topo: cluster.PaperTopology(), Mode: ModeXarTrek, Duration: time.Second,
			Trace: []time.Duration{-time.Second}}, "negative trace"},
		{ServingConfig{Topo: cluster.Topology{Name: "bad"}, Mode: ModeXarTrek, RatePerSec: 1,
			Duration: time.Second}, "no nodes"},
		{ServingConfig{Topo: cluster.PaperTopology(), Mode: ModeXarTrek, RatePerSec: 1,
			Duration: time.Second, Opts: Options{Shards: -1}}, "options.shards -1"},
		// Past 1e9/s the 1 ns clock stops advancing; each source rejects
		// such a rate instead of growing one batch without bound.
		{ServingConfig{Topo: cluster.PaperTopology(), Mode: ModeXarTrek, RatePerSec: 1e300,
			Duration: time.Second}, "rate 1e+300 exceeds"},
		{ServingConfig{Topo: cluster.PaperTopology(), Mode: ModeXarTrek, RatePerSec: 1e300,
			Duration: time.Second, Opts: Options{LatencyMode: LatencySketch}}, "rate 1e+300 exceeds"},
		{ServingConfig{Topo: cluster.PaperTopology(), Mode: ModeXarTrek, RatePerSec: 1e6,
			Duration: time.Second, Workload: &tenancy.Spec{Cohorts: []tenancy.Cohort{{
				ID: "burst", RateFraction: 1, Class: tenancy.ClassBatch,
				Arrival: tenancy.ArrivalSpec{Schedule: []tenancy.Window{
					{Duration: tenancy.Duration(time.Second), Factor: 1},
					{Duration: tenancy.Duration(time.Second), Factor: 1e4},
				}},
			}}}}, `cohort "burst": peak rate 1e+10`},
	}
	for i, tc := range cases {
		_, err := RunServing(arts, tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: err = %v, want containing %q", i, err, tc.want)
		}
	}

	// A tiny positive rate is valid, not bad: its gaps reach past the
	// horizon (and past what time.Duration holds), which ends the
	// stream. Each run returns a result; nothing panics or hangs.
	mmpp, err := MMPPTrace(1, time.Minute, []MMPPState{
		{RatePerSec: 1e-12, MeanSojourn: 5 * time.Second},
		{RatePerSec: 4, MeanSojourn: 5 * time.Second},
	})
	if err != nil {
		t.Fatalf("mmpp with a 1e-12 state: %v", err)
	}
	idle := &tenancy.Spec{Cohorts: []tenancy.Cohort{{
		ID: "idle", RateFraction: 1, Class: tenancy.ClassBatch,
		Arrival: tenancy.ArrivalSpec{Schedule: []tenancy.Window{{Duration: tenancy.Duration(time.Second), Factor: 1e-12}}},
	}}}
	tiny := ServingConfig{Topo: cluster.PaperTopology(), Mode: ModeXarTrek, RatePerSec: 1e-12, Duration: time.Minute}
	sketch := tiny
	sketch.Opts.LatencyMode = LatencySketch
	scheduled := tiny
	scheduled.RatePerSec, scheduled.Workload = 4, idle
	bursty := tiny
	bursty.RatePerSec, bursty.Trace = 0, mmpp
	for _, tc := range []struct {
		name    string
		cfg     ServingConfig
		offered int
	}{
		{"rate 1e-12 exact", tiny, 0},
		{"rate 1e-12 sketch", sketch, 0},
		{"schedule factor 1e-12", scheduled, 0},
		{"mmpp state rate 1e-12", bursty, len(mmpp)},
	} {
		r, err := RunServing(arts, tc.cfg)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if r.Offered != tc.offered {
			t.Errorf("%s: offered %d, want %d", tc.name, r.Offered, tc.offered)
		}
	}
	if len(mmpp) == 0 || mmpp[0] < 0 {
		t.Errorf("mmpp trace with a 1e-12 state = %v, want non-empty and non-negative", mmpp)
	}
	if _, err := MMPPTrace(1, time.Second, []MMPPState{{RatePerSec: 1e300, MeanSojourn: time.Second}}); err == nil ||
		!strings.Contains(err.Error(), "rate_per_sec 1e+300 exceeds") {
		t.Errorf("mmpp state rate 1e300: err = %v, want rejection", err)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	lat := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(lat, 50); got != 5 {
		t.Fatalf("p50 = %v, want 5", got)
	}
	if got := percentile(lat, 99); got != 10 {
		t.Fatalf("p99 = %v, want 10", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Fatalf("p50(nil) = %v, want 0", got)
	}
	if got := percentile(lat[:1], 95); got != 1 {
		t.Fatalf("p95 of singleton = %v, want 1", got)
	}
	// Edge conventions documented on percentile(): pct=100 is exactly
	// the maximum (rank n, no overshoot), pct=0 and negative pct clamp
	// to rank 1 (the minimum — nearest-rank has no rank 0), pct above
	// 100 clamps to the maximum, and the empty slice reports 0 at the
	// extremes too.
	if got := percentile(lat, 100); got != 10 {
		t.Fatalf("p100 = %v, want the maximum 10", got)
	}
	if got := percentile(lat, 0); got != 1 {
		t.Fatalf("p0 = %v, want the minimum 1", got)
	}
	if got := percentile(lat, -5); got != 1 {
		t.Fatalf("p-5 = %v, want the minimum 1", got)
	}
	if got := percentile(lat, 150); got != 10 {
		t.Fatalf("p150 = %v, want the maximum 10", got)
	}
	if got := percentile([]time.Duration{}, 100); got != 0 {
		t.Fatalf("p100(empty) = %v, want 0", got)
	}
	if got := percentile(lat[:1], 100); got != 1 {
		t.Fatalf("p100 of singleton = %v, want 1", got)
	}
	if got := percentile(lat[:1], 0); got != 1 {
		t.Fatalf("p0 of singleton = %v, want 1", got)
	}
	// Exact rank arithmetic just below and at a rank boundary: p10 of
	// ten samples is exactly rank 1; p11 crosses to rank 2.
	if got := percentile(lat, 10); got != 1 {
		t.Fatalf("p10 = %v, want rank-1 sample 1", got)
	}
	if got := percentile(lat, 11); got != 2 {
		t.Fatalf("p11 = %v, want rank-2 sample 2", got)
	}
}

// TestLatDigestMatchesPercentile pins that the exact-mode digest is the
// same function as percentile() and that the sketch-mode digest agrees
// with it on a stream small enough for the sketch to be exact-by-
// construction plus bounded beyond that.
func TestLatDigestMatchesPercentile(t *testing.T) {
	for _, sketch := range []bool{false, true} {
		d := newLatDigest(sketch)
		var ref []time.Duration
		for i := 0; i < 200; i++ {
			v := time.Duration((i*37)%200) * time.Millisecond
			d.add(v)
			ref = append(ref, v)
		}
		sortDurations(ref)
		d.seal()
		if d.count() != len(ref) {
			t.Fatalf("sketch=%v: count %d, want %d", sketch, d.count(), len(ref))
		}
		for _, pct := range []int{0, 1, 10, 50, 95, 99, 100} {
			if got, want := d.percentile(pct), percentile(ref, pct); got != want {
				t.Fatalf("sketch=%v: p%d = %v, want %v", sketch, pct, got, want)
			}
		}
	}
	for _, sketch := range []bool{false, true} {
		d := newLatDigest(sketch)
		d.seal()
		if got := d.percentile(99); got != 0 {
			t.Fatalf("sketch=%v: empty digest p99 = %v, want 0", sketch, got)
		}
	}
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

func TestServingBurstSpreadsAcrossEntryNodes(t *testing.T) {
	arts := testArtifacts(t)
	// Twelve simultaneous arrivals against one vs two x86 nodes
	// (CPU-only, x86-only, so execution time depends purely on entry
	// contention). Placements land in the run queue only after every
	// same-instant arrival event has executed, so without same-instant
	// bookkeeping the front end would pile the whole burst onto node 0
	// and the two-node cluster would behave exactly like the one-node
	// cluster.
	burst := make([]time.Duration, 12)
	run := func(nX86 int) ServingResult {
		r, err := RunServing(arts, ServingConfig{
			Topo: cluster.ScaleOutTopology("flat", nX86, 0, 0), Mode: ModeVanillaX86,
			Duration: 5 * time.Minute, Seed: 3, Trace: burst,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	one, two := run(1), run(2)
	if one.Completed != 12 || two.Completed != 12 {
		t.Fatalf("completions: one=%d two=%d, want 12", one.Completed, two.Completed)
	}
	if two.P99 >= one.P99 {
		t.Fatalf("burst not balanced: p99 with two entry nodes (%v) not below one node (%v)", two.P99, one.P99)
	}
}
