package exper

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"xartrek/internal/cluster"
	"xartrek/internal/workloads"
)

func TestLoadTraceSecondsOffsets(t *testing.T) {
	trace, err := LoadTrace(strings.NewReader("0\n0.25\n1.5\n\n# comment\n3\n"), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{0, 250 * time.Millisecond, 1500 * time.Millisecond, 3 * time.Second}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
}

func TestLoadTraceCSVTimestampsAnchored(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "requests.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	trace, err := LoadTrace(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{
		0,
		250 * time.Millisecond,
		time.Second,
		2500 * time.Millisecond,
		4 * time.Second,
		6 * time.Second,
		9 * time.Second,
		12 * time.Second,
	}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
}

func TestLoadTraceRescalesArrivalRate(t *testing.T) {
	// rescale 2 = twice the rate = offsets halved.
	trace, err := LoadTrace(strings.NewReader("1\n3\n"), 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{500 * time.Millisecond, 1500 * time.Millisecond}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	// rescale 0.5 = half the rate = offsets doubled.
	trace, err = LoadTrace(strings.NewReader("1\n"), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if trace[0] != 2*time.Second {
		t.Fatalf("trace = %v, want [2s]", trace)
	}
}

func TestLoadTraceSortsOutOfOrderLogs(t *testing.T) {
	trace, err := LoadTrace(strings.NewReader("5\n1\n3\n"), 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{time.Second, 3 * time.Second, 5 * time.Second}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	// An unanchored earliest timestamp mid-log still becomes offset 0.
	trace, err = LoadTrace(strings.NewReader(
		"2021-12-06T10:00:05Z\n2021-12-06T10:00:00Z\n2021-12-06T10:00:02Z\n"), 1)
	if err != nil {
		t.Fatal(err)
	}
	want = []time.Duration{0, 2 * time.Second, 5 * time.Second}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
}

func TestLoadTraceAnchorsEpochSecondsLogs(t *testing.T) {
	// Numeric timestamps that are clearly Unix epoch seconds anchor to
	// the earliest entry instead of replaying as ~51-year offsets that
	// every horizon would silently drop.
	trace, err := LoadTrace(strings.NewReader(
		"1638784800.25,/detect\n1638784800,/detect\n1638784803.5,/classify\n"), 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{0, 250 * time.Millisecond, 3500 * time.Millisecond}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	// Small offsets keep their lead-in: no anchoring below the cutoff.
	trace, err = LoadTrace(strings.NewReader("5\n7\n"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if trace[0] != 5*time.Second {
		t.Fatalf("trace = %v, want lead-in preserved", trace)
	}
}

func TestLoadTraceRejectsBadInput(t *testing.T) {
	cases := []struct {
		in      string
		rescale float64
		want    string
	}{
		{"garbage\n", 1, "neither a seconds offset"},
		{"-1\n", 1, "negative offset"},
		{"1\n", -2, "negative rescale"},
		{"1\n2021-12-06T10:00:00Z\n", 1, "mixes numeric and RFC 3339"},
		{"NaN\n", 1, "neither a seconds offset"},
		{"+Inf\n", 1, "neither a seconds offset"},
		// Errors carry the line number and the offending field so a
		// bad row in a million-line log is findable.
		{"# header\n1\n2\noops\n", 1, `trace line 4: "oops"`},
		{"0\n# comment\n-3,/x\n", 1, "line 3: negative offset -3"},
		{"# log\n2021-12-06T10:00:00Z\n\n7,/a\n", 1,
			`"7" on line 4 vs "2021-12-06T10:00:00Z" on line 2`},
	}
	for i, tc := range cases {
		_, err := LoadTrace(strings.NewReader(tc.in), tc.rescale)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: err = %v, want containing %q", i, err, tc.want)
		}
	}
}

func TestLoadTraceAcceptsLongLogLines(t *testing.T) {
	// A line longer than bufio.Scanner's default 64 KiB token limit
	// (huge URL / user-agent after the timestamp) must not reject the
	// log — only the first CSV field matters.
	long := "1.5," + strings.Repeat("x", 1<<17) + "\n"
	trace, err := LoadTrace(strings.NewReader("0.5,/a\n"+long), 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{500 * time.Millisecond, 1500 * time.Millisecond}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
}

func TestLoadTraceEmptyLogIsEmptyTrace(t *testing.T) {
	trace, err := LoadTrace(strings.NewReader("# only comments\n\n"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 0 {
		t.Fatalf("trace = %v, want empty", trace)
	}
}

// TestArrivalStreamShardDealExact pins the one shard deal every source
// kind goes through: for each stream and shard count, the round-robin
// union of the per-shard arrival streams (shard i's k-th arrival is
// the unsharded stream's arrival k·n+i) is the unsharded stream —
// same instants, cohorts and applications — and the per-cohort offered
// counts sum exactly to the unsharded ones.
func TestArrivalStreamShardDealExact(t *testing.T) {
	arts := testArtifacts(t)
	base := ServingConfig{Name: "deal", Duration: 20 * time.Second, Seed: 2021}
	mmpp, err := BurstyTrace(7, base.Duration, 60, 2*time.Second, 2, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var ties []time.Duration
	for i := range 90 {
		ties = append(ties, time.Duration(i*37%29)*500*time.Millisecond)
	}
	streams := []struct {
		name string
		cfg  func(*ServingConfig)
	}{
		{"poisson", func(c *ServingConfig) { c.RatePerSec = 40 }},
		{"sorted trace", func(c *ServingConfig) { c.Trace = mmpp }},
		{"unsorted trace with ties", func(c *ServingConfig) { c.Trace = ties }},
		{"fewer arrivals than shards", func(c *ServingConfig) {
			c.Trace = []time.Duration{25 * time.Second, time.Second, 40 * time.Second}
		}},
		{"two-cohort workload", func(c *ServingConfig) { c.RatePerSec = 40; c.Workload = testWorkload() }},
	}
	type arrival struct {
		at     time.Duration
		cohort int
		app    *workloads.App
	}
	collect := func(t *testing.T, cfg ServingConfig) ([]arrival, []int) {
		t.Helper()
		var ten *tenantRun
		var err error
		if cfg.Workload.Enabled() {
			if ten, err = newTenantRun(&cfg, arts.Apps, false); err != nil {
				t.Fatal(err)
			}
		}
		s, err := newArrivalStream(cfg, arts.Apps, ten)
		if err != nil {
			t.Fatal(err)
		}
		var out []arrival
		prev := time.Duration(-1)
		for {
			at, batch, ok := s.next()
			if !ok {
				break
			}
			if at <= prev || len(batch) == 0 {
				t.Fatalf("batch at %v (%d arrivals) after batch at %v", at, len(batch), prev)
			}
			prev = at
			for _, a := range batch {
				if a.At != at {
					t.Fatalf("arrival at %v in the batch at %v", a.At, at)
				}
				out = append(out, arrival{a.At, a.Cohort, s.apps[a.Cohort][a.App]})
			}
		}
		if s.total() != len(out) {
			t.Fatalf("total %d, yielded %d", s.total(), len(out))
		}
		return out, s.offered
	}
	for _, st := range streams {
		t.Run(st.name, func(t *testing.T) {
			cfg := base
			st.cfg(&cfg)
			cfg.Trace = timeOrdered(cfg.Trace)
			whole, wholeOffered := collect(t, cfg)
			if len(whole) == 0 {
				t.Fatal("empty stream")
			}
			for _, n := range []int{2, 3, 5} {
				offered := make([]int, len(wholeOffered))
				for i, sub := range shardConfigs(cfg, make([]cluster.Topology, n)) {
					part, partOffered := collect(t, sub)
					for k, a := range part {
						if j := k*n + i; j >= len(whole) || a != whole[j] {
							t.Fatalf("%d shards: shard %d arrival %d = %+v, want the unsharded arrival %d", n, i, k, a, j)
						}
					}
					for c, o := range partOffered {
						offered[c] += o
					}
				}
				if !reflect.DeepEqual(offered, wholeOffered) {
					t.Fatalf("%d shards: per-cohort offered %v, unsharded %v", n, offered, wholeOffered)
				}
			}
		})
	}
}
