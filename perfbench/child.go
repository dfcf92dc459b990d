package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"xartrek/internal/exper"
	"xartrek/internal/workloads"
)

// span is one timed interval of the benchmark's own calls into the
// program. Times are seconds since the child process started its
// measurement; Parent names the enclosing span ("" for the root).
type span struct {
	Name   string  `json:"name"`
	Parent string  `json:"parent"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory; they are written out when the run
// ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) do(name, parent string, f func() error) error {
	start := time.Since(t.t0).Seconds()
	err := f()
	t.spans = append(t.spans, span{name, parent, start, time.Since(t.t0).Seconds()})
	return err
}

// spanDur returns the duration of the named span (0 if absent).
func spanDur(spans []span, name string) float64 {
	for _, s := range spans {
		if s.Name == name {
			return s.End - s.Start
		}
	}
	return 0
}

// childResult is what one measurement process reports to the parent process.
type childResult struct {
	GOMAXPROCS int                `json:"gomaxprocs"`
	SetupS     float64            `json:"setup_s"`
	RunS       float64            `json:"run_s,omitempty"`
	CPUS       float64            `json:"cpu_s,omitempty"`
	PeakHeap   uint64             `json:"peak_heap_bytes,omitempty"`
	Alloc      uint64             `json:"alloc_bytes,omitempty"`
	GCCycles   uint64             `json:"gc_cycles,omitempty"`
	Err        string             `json:"err,omitempty"`
	ReportSHA  string             `json:"report_sha,omitempty"`
	CellSHA    []string           `json:"cell_sha,omitempty"`
	Violations map[int][]string   `json:"violations,omitempty"`
	Counts     map[string]float64 `json:"counts,omitempty"`
	Buckets    map[string]float64 `json:"buckets,omitempty"`
	Spans      []span             `json:"spans,omitempty"`
	Profile    []byte             `json:"profile,omitempty"`
}

// Child modes: setup only, an untraced campaign run, or a traced one
// (spans written out plus a CPU profile of the campaign run).
const (
	modeSetup  = "setup"
	modeRun    = "run"
	modeTraced = "traced"
	setupSpan  = "setup"
)

// runChild performs one measurement in this (fresh) process and
// writes its childResult as JSON to out. Errors from the program are
// reported in the result, not as a process failure, so the parent
// counts the cells as failed.
func runChild(out io.Writer, mode, workload string, seed int64) error {
	raw, err := specBytes(workload)
	if err != nil {
		return err
	}
	res := childResult{GOMAXPROCS: runtime.GOMAXPROCS(0)}
	tr := &tracer{t0: time.Now()}

	var arts *exper.Artifacts
	var spec *exper.CampaignSpec
	var cells []exper.CellSpec
	err = tr.do(setupSpan, "", func() error {
		var apps []*workloads.App
		if err := tr.do("setup.registry", setupSpan, func() (err error) {
			apps, err = workloads.Registry()
			return err
		}); err != nil {
			return err
		}
		if err := tr.do("setup.build", setupSpan, func() (err error) {
			arts, err = exper.BuildArtifacts(apps)
			return err
		}); err != nil {
			return err
		}
		return tr.do("exper.parse", setupSpan, func() (err error) {
			spec, cells, err = parseSpec(raw, seed)
			return err
		})
	})
	res.SetupS = spanDur(tr.spans, setupSpan)
	if err != nil {
		res.Err = fmt.Sprintf("setup: %v", err)
		return json.NewEncoder(out).Encode(res)
	}
	if mode == modeSetup {
		return json.NewEncoder(out).Encode(res)
	}

	// Start the run from a collected heap so the peak and allocation
	// figures do not depend on when set-up garbage happens to be swept.
	runtime.GC()
	watch := startGCWatch()
	before := readRuntime()
	cpu0 := cpuSeconds()
	var prof bytes.Buffer
	if mode == modeTraced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
	}
	var rep *exper.Report
	runErr := tr.do("exper.run", "", func() (err error) {
		rep, err = exper.RunCampaign(arts, *spec, exper.RunOpts{})
		return err
	})
	if mode == modeTraced {
		pprof.StopCPUProfile()
	}
	res.CPUS = cpuSeconds() - cpu0
	after := readRuntime()
	res.PeakHeap = watch.stop()
	res.RunS = spanDur(tr.spans, "exper.run")
	res.Alloc = after.allocs - before.allocs
	res.GCCycles = after.cycles - before.cycles
	if runErr != nil {
		res.Err = fmt.Sprintf("run: %v", runErr)
		return json.NewEncoder(out).Encode(res)
	}
	res.ReportSHA, res.CellSHA, err = digestReport(rep)
	if err != nil {
		return err
	}
	for i := range rep.Cells {
		if bad := checkCell(&rep.Cells[i]); len(bad) > 0 {
			if res.Violations == nil {
				res.Violations = map[int][]string{}
			}
			res.Violations[i] = bad
		}
	}
	res.Counts = counts(rep, cells)
	if mode == modeTraced {
		res.Spans = tr.spans
		res.Profile = prof.Bytes()
		res.Buckets, err = attribute(prof.Bytes())
		if err != nil {
			return fmt.Errorf("profile: %w", err)
		}
	}
	return json.NewEncoder(out).Encode(res)
}

// cpuSeconds is this process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

type runtimeCounters struct{ allocs, cycles uint64 }

func readRuntime() runtimeCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return runtimeCounters{s[0].Value.Uint64(), s[1].Value.Uint64()}
}

// gcWatch records the largest live heap seen after any GC cycle: a
// finalizer on a fresh sentinel runs once per cycle, reads the heap
// marked live by that cycle, and re-arms itself.
type gcWatch struct {
	mu      sync.Mutex
	peak    uint64
	stopped bool
}

type sentinel struct{ _ *int }

func startGCWatch() *gcWatch {
	w := &gcWatch{}
	w.arm()
	return w
}

func (w *gcWatch) arm() {
	runtime.SetFinalizer(&sentinel{}, func(*sentinel) {
		w.sample()
		w.mu.Lock()
		stopped := w.stopped
		w.mu.Unlock()
		if !stopped {
			w.arm()
		}
	})
}

func (w *gcWatch) sample() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	w.mu.Lock()
	w.peak = max(w.peak, s[0].Value.Uint64())
	w.mu.Unlock()
}

// stop samples the last completed cycle once more, disarms the
// sentinel and returns the peak.
func (w *gcWatch) stop() uint64 {
	w.sample()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.stopped = true
	return w.peak
}
