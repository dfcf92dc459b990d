package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

const (
	// setupProcs is how many extra set-up-only processes each run
	// starts, so setup_s is a median of cold set-ups even when the
	// campaign itself fits only a few processes into --seconds.
	setupProcs = 5
	// deadline bounds every measurement process of one run, so a
	// hung program cannot keep a run going past three minutes.
	deadline = 170 * time.Second
	// outDir holds what a traced run writes out: spans, buckets and
	// the CPU profile.
	outDir = ".bench_out"
)

// result is the run's final stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run as appended to a --record file for compare.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

// launcher starts measurement processes of one workload and seed.
type launcher struct {
	ctx      context.Context
	self     string
	workload string
	seed     int64
}

// start runs one fresh measurement process; procs > 0 pins its
// GOMAXPROCS, 0 leaves the default (the machine's CPU count). A process
// that crashes or prints no result is reported through Err, so its
// cells count as failed.
func (l launcher) start(mode string, procs int) *childResult {
	cmd := exec.CommandContext(l.ctx, l.self, "child", "-mode", mode,
		"-workload", l.workload, "-seed", strconv.FormatInt(l.seed, 10))
	cmd.Stderr = os.Stderr
	if procs > 0 {
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	}
	r := &childResult{GOMAXPROCS: procs}
	out, err := cmd.Output()
	if err == nil {
		err = json.Unmarshal(out, r)
	}
	if err != nil {
		r.Err = fmt.Sprintf("%s process: %v", mode, err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %-16s %-6s procs=%d setup=%.4fs run=%.3fs cpu=%.3fs peak=%.1fMiB alloc=%.1fMiB offered=%.0f%s\n",
		l.workload, mode, r.GOMAXPROCS, r.SetupS, r.RunS, r.CPUS,
		mib(r.PeakHeap), mib(r.Alloc), r.Counts["exper.offered"], errSuffix(r.Err))
	return r
}

func mib(b uint64) float64 { return float64(b) / (1 << 20) }

func errSuffix(e string) string {
	if e == "" {
		return ""
	}
	return " error: " + e
}

// verifier counts attempted and failed cells across a run's processes.
// A cell fails when the program returns an error, when it breaks an
// invariant, when its digest differs from the run's first report
// (determinism across processes, tracing and GOMAXPROCS) or, at the
// default seed, from the recorded digest.
type verifier struct {
	cells     int
	recorded  *workloadDigest
	reference []string
	attempted int
	failed    int
}

func (v *verifier) check(r *childResult) {
	v.attempted += v.cells
	if r.Err != "" || len(r.CellSHA) != v.cells {
		v.failed += v.cells
		return
	}
	if v.reference == nil {
		v.reference = r.CellSHA
	}
	for i := 0; i < v.cells; i++ {
		bad := len(r.Violations[i]) > 0 || r.CellSHA[i] != v.reference[i]
		if v.recorded != nil {
			bad = bad || len(v.recorded.Cells) != v.cells || r.CellSHA[i] != v.recorded.Cells[i]
		}
		if bad {
			v.failed++
		}
		for _, msg := range r.Violations[i] {
			fmt.Fprintf(os.Stderr, "perfbench: cell %d: %s\n", i, msg)
		}
	}
	if v.recorded != nil && r.ReportSHA != v.recorded.Report {
		fmt.Fprintf(os.Stderr, "perfbench: report digest %s, recorded %s\n", r.ReportSHA, v.recorded.Report)
	}
}

// drive performs one benchmark run and prints its result line.
func drive(out io.Writer, workload string, seed int64, seconds float64, trace bool, recordPath string) error {
	raw, err := specBytes(workload)
	if err != nil {
		return err
	}
	_, cells, err := parseSpec(raw, seed)
	if err != nil {
		return err
	}
	v := &verifier{cells: len(cells)}
	if seed == defaultSeed {
		d, err := loadDigests()
		if err != nil {
			return err
		}
		wd, ok := d.Workloads[workload]
		if !ok || d.Seed != defaultSeed {
			return fmt.Errorf("no digest recorded for %s at seed %d (run: perfbench bless)", workload, defaultSeed)
		}
		v.recorded = &wd
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	l := launcher{ctx: ctx, self: self, workload: workload, seed: seed}

	var setups []float64
	for i := 0; i < setupProcs; i++ {
		r := l.start(modeSetup, 0)
		if r.Err != "" {
			return fmt.Errorf("set-up failed: %s", r.Err)
		}
		setups = append(setups, r.SetupS)
	}

	var runs, traced []*childResult
	begin := time.Now()
	for len(runs) == 0 || time.Since(begin).Seconds() < seconds {
		r := l.start(modeRun, 0)
		v.check(r)
		setups = append(setups, r.SetupS)
		runs = append(runs, r)
		if trace {
			t := l.start(modeTraced, 0)
			v.check(t)
			traced = append(traced, t)
		}
	}
	res := result{Metrics: map[string]metricValue{}}
	if !trace {
		endToEndMetrics(res.Metrics, setups, runs)
	} else {
		// The scaling record: the same traced call pinned to one and
		// two processors (reusing the default when it already is two).
		p1 := l.start(modeTraced, 1)
		v.check(p1)
		p2 := traced
		if traced[0].GOMAXPROCS != 2 {
			r := l.start(modeTraced, 2)
			v.check(r)
			p2 = []*childResult{r}
		}
		perLayerMetrics(res.Metrics, runs, traced, p1, p2)
		if err := writeTrace(workload, seed, res.Metrics, traced); err != nil {
			return err
		}
	}
	res.Attempted, res.Failed = v.attempted, v.failed
	res.Correct = v.failed == 0
	if recordPath != "" {
		if err := appendRecord(recordPath, record{workload, seed, trace, res}); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// okRuns drops processes that failed; their cells already count as
// failed, and their timings would not describe a finished campaign.
func okRuns(rs []*childResult) []*childResult {
	var ok []*childResult
	for _, r := range rs {
		if r.Err == "" {
			ok = append(ok, r)
		}
	}
	return ok
}

func medianOf(rs []*childResult, f func(*childResult) float64) float64 {
	xs := make([]float64, 0, len(rs))
	for _, r := range rs {
		xs = append(xs, f(r))
	}
	return median(xs)
}

func endToEndMetrics(m map[string]metricValue, setups []float64, runs []*childResult) {
	runs = okRuns(runs)
	val := map[string]float64{
		"setup_s": median(setups),
		"wall_s":  medianOf(runs, func(r *childResult) float64 { return r.RunS }),
		"req_per_wall_s": medianOf(runs, func(r *childResult) float64 {
			return r.Counts["exper.offered"] / r.RunS
		}),
		"cpu_s":         medianOf(runs, func(r *childResult) float64 { return r.CPUS }),
		"peak_heap_mib": medianOf(runs, func(r *childResult) float64 { return mib(r.PeakHeap) }),
		"alloc_mib":     medianOf(runs, func(r *childResult) float64 { return mib(r.Alloc) }),
	}
	for _, d := range endToEnd {
		m[d.Name] = metricValue{val[d.Name], d.Unit}
	}
}

func perLayerMetrics(m map[string]metricValue, runs, traced []*childResult, p1 *childResult, p2 []*childResult) {
	runs, traced, p2 = okRuns(runs), okRuns(traced), okRuns(p2)
	val := map[string]float64{}
	for _, name := range []string{"setup.registry", "setup.build", "exper.parse", "exper.run"} {
		val[name+"_s"] = medianOf(traced, func(r *childResult) float64 { return spanDur(r.Spans, name) })
	}
	for _, b := range buckets {
		val[b] = medianOf(traced, func(r *childResult) float64 { return r.Buckets[b] })
	}
	if len(traced) > 0 {
		for k, x := range traced[0].Counts {
			val[k] = x
		}
	}
	val["par.cpu_per_wall"] = medianOf(traced, func(r *childResult) float64 { return r.CPUS / r.RunS })
	val["runtime.gc_cycles"] = medianOf(traced, func(r *childResult) float64 { return float64(r.GCCycles) })
	if p1.Err == "" && len(p2) > 0 {
		val["par.wall_p1_s"] = p1.RunS
		val["par.wall_p2_s"] = medianOf(p2, func(r *childResult) float64 { return r.RunS })
		val["par.speedup"] = val["par.wall_p1_s"] / val["par.wall_p2_s"]
	}
	if base := medianOf(runs, func(r *childResult) float64 { return r.RunS }); base > 0 {
		val["trace.overhead_frac"] = val["exper.run_s"]/base - 1
	}
	for _, d := range perLayer {
		m[d.Name] = metricValue{val[d.Name], d.Unit}
	}
}

// writeTrace writes the traced run's spans, per-layer metrics and the
// first traced process's CPU profile under outDir.
func writeTrace(workload string, seed int64, metrics map[string]metricValue, traced []*childResult) error {
	dir := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", workload, seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type procSpans struct {
		GOMAXPROCS int    `json:"gomaxprocs"`
		Spans      []span `json:"spans"`
	}
	doc := struct {
		Workload  string                 `json:"workload"`
		Seed      int64                  `json:"seed"`
		Processes []procSpans            `json:"processes"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Workload: workload, Seed: seed, Metrics: metrics}
	for _, t := range traced {
		doc.Processes = append(doc.Processes, procSpans{t.GOMAXPROCS, t.Spans})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "trace.json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	if len(traced) > 0 && len(traced[0].Profile) > 0 {
		return os.WriteFile(filepath.Join(dir, "cpu.pprof"), traced[0].Profile, 0o644)
	}
	return nil
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// bless runs every workload once at the default seed and records its
// report and cell digests in specs/digests.json. Use it only when a
// change to the program's output is intended.
func bless() error {
	d := digestFile{Seed: defaultSeed, Workloads: map[string]workloadDigest{}}
	for _, w := range workloadNames {
		var buf bytes.Buffer
		if err := runChild(&buf, modeRun, w, defaultSeed); err != nil {
			return err
		}
		var r childResult
		if err := json.Unmarshal(buf.Bytes(), &r); err != nil {
			return err
		}
		if r.Err != "" || len(r.Violations) > 0 {
			return fmt.Errorf("%s: refusing to bless a failing report: %s %v", w, r.Err, r.Violations)
		}
		d.Workloads[w] = workloadDigest{Report: r.ReportSHA, Cells: r.CellSHA}
		fmt.Fprintf(os.Stderr, "perfbench: %s report %s\n", w, r.ReportSHA)
	}
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("perfbench", "specs", "digests.json"), append(b, '\n'), 0o644)
}
