package exper

import (
	"fmt"
	"time"

	"xartrek/internal/cluster"
	"xartrek/internal/core/sched"
	"xartrek/internal/elastic"
	"xartrek/internal/faults"
	"xartrek/internal/par"
	"xartrek/internal/tenancy"
)

// ServingConfig describes one open-loop serving run: a topology under
// a request stream whose arrivals do not wait for completions —
// the regime of a middleware fleet multiplexing many independent
// clients. Arrivals are Poisson at RatePerSec (drawn deterministically
// from Seed) or, when Trace is non-empty, replayed from an explicit
// arrival-offset trace.
type ServingConfig struct {
	// Name labels the run in reports; empty defaults to the topology
	// name.
	Name string
	Topo cluster.Topology
	Mode Mode
	// RatePerSec is the mean Poisson arrival rate (requests/second).
	// Ignored when Trace is set.
	RatePerSec float64
	// Duration is the injection window and the measurement horizon:
	// arrivals are issued over [0, Duration) and only requests that
	// complete by Duration count.
	Duration time.Duration
	// Seed drives the arrival process and the per-request application
	// draw; fixed seeds make runs byte-identical.
	Seed int64
	// Trace, when non-empty, lists explicit arrival offsets from time
	// zero (trace-driven mode). Offsets at or past Duration are
	// dropped; negative offsets are invalid. Offsets need not be
	// sorted: the run replays them in time order and draws each
	// request's application in that order. MMPPTrace generates bursty
	// traces in this format.
	Trace []time.Duration
	// Policy selects the scheduler fleet's placement policy for this
	// run (PolicyDefault, PolicyLinkAware, PolicyAffinity). Non-empty
	// values override Opts.Policy.
	Policy string
	// Opts carries the ablation switches.
	Opts Options
	// Faults, when non-empty, injects the spec's failure timeline into
	// the run (expanded deterministically from Seed) and makes the
	// scheduler fleet failure-aware. nil or an empty spec leaves the
	// run byte-identical to the pre-fault engine.
	Faults *faults.Spec
	// Admission, when enabled, bounds each entry node's resident queue
	// and sheds (or degrades) over-cap arrivals by the spec's overload
	// policy. nil or a disabled spec leaves the run byte-identical to
	// the pre-admission engine.
	Admission *elastic.AdmissionSpec
	// Autoscaler, when enabled, runs the elastic control loop: an
	// epoch sampler on the sim timeline joins and drains entry nodes
	// by observed load. nil or a disabled spec leaves the run
	// byte-identical to the pre-autoscaler engine.
	Autoscaler *elastic.AutoscalerSpec
	// Workload, when it declares cohorts, replaces the anonymous
	// arrival stream with the tenancy package's merged multi-client
	// stream at RatePerSec aggregate: per-cohort rate fractions, SLO
	// classes and arrival processes, with per-class latency digests in
	// the result. nil (omitted from JSON, keeping workload-free shard
	// fingerprints stable) leaves the run byte-identical to the
	// pre-tenancy engine. Mutually exclusive with Trace.
	Workload *tenancy.Spec `json:",omitempty"`

	// shardStride/shardPhase deal the arrival stream to a sharded
	// sub-run: it walks the parent's whole stream and keeps the
	// arrivals whose index is congruent to shardPhase mod shardStride
	// (arrivalStream). shardStride 0 keeps every arrival.
	shardStride int
	shardPhase  int
	// shardCk carries the campaign checkpoint context into the sharded
	// engine, which persists per-shard results so a resumed run re-runs
	// only missing shards. nil outside checkpointed campaigns.
	shardCk *shardCheckpoint
}

// ServingResult is one serving run's report: offered vs completed
// requests, throughput over the horizon, and the completion-latency
// distribution.
type ServingResult struct {
	Name       string
	Mode       Mode
	RatePerSec float64
	// Offered is the number of requests injected.
	Offered int
	// Completed is the number that finished within the horizon.
	Completed int
	// ThroughputPerSec is Completed divided by the horizon.
	ThroughputPerSec float64
	// P50, P95 and P99 are completion-latency percentiles
	// (nearest-rank over completed requests; zero when none completed).
	// Under Options.LatencyMode "sketch" they come from a GK quantile
	// sketch and carry its rank-error bound instead of being exact.
	P50, P95, P99 time.Duration
	// LatencyMode is LatencySketch when the percentiles are
	// sketch-backed; empty in the exact default, keeping exact-mode
	// JSON byte-identical to pre-sketch output.
	LatencyMode string `json:",omitempty"`
	// MeanHostLoad is the scheduler host's average multiprogramming
	// level over the horizon — the x86LOAD the thresholds react to.
	MeanHostLoad float64
	// Policy is the placement policy the run's scheduler fleet used.
	Policy string
	// Sched aggregates the scheduler fleet's counters over the run —
	// per-target decisions plus the reconfiguration outcome split
	// (started / skipped-because-pending / deferred-all-busy).
	Sched sched.Stats
	// FPGAReconfigs is the total number of image downloads the device
	// fleet performed, from any path (scheduler, preconfiguration,
	// affinity preload) — the churn the affinity policy cuts.
	FPGAReconfigs int
	// Faults is the resilience report of a fault-injected run; nil on
	// fault-free runs (omitted from JSON, keeping fault-free reports
	// byte-identical to pre-fault output).
	Faults *FaultResult `json:",omitempty"`
	// Overload is the admission policy of an admission-controlled run
	// (elastic.Drop, RejectFast or DegradeToCPU); empty when admission
	// is disabled, omitting every overload field from JSON and keeping
	// such reports byte-identical to pre-elastic output.
	Overload string `json:",omitempty"`
	// Shed counts arrivals refused at the entry nodes (drop and
	// reject-fast); they are offered but never complete.
	Shed int `json:",omitempty"`
	// Degraded counts over-cap arrivals admitted at the degraded
	// CPU-only service class (degrade-to-cpu).
	Degraded int `json:",omitempty"`
	// GoodputPerSec is the rate of full-fidelity completions —
	// completed requests that were not degraded — over the horizon.
	// Only reported when admission control is enabled.
	GoodputPerSec float64 `json:",omitempty"`
	// Elastic is the autoscaler's fleet-size report; nil when the
	// control loop is disabled.
	Elastic *elastic.Result `json:",omitempty"`
	// Tenancy is the per-class and per-cohort report of a
	// workload-driven run; nil without a workload (omitted from JSON,
	// keeping workload-free reports byte-identical to pre-tenancy
	// output).
	Tenancy *TenancyResult `json:",omitempty"`
}

// RunServing executes one open-loop serving run; campaign serving,
// policy-comparison and knee cells call it too. Configs with
// Opts.Shards > 1 route to the sharded engine (sharded.go); everything
// else — including shards=1 — takes the single-timeline path below,
// byte-identical to the pre-shard engine.
func RunServing(arts *Artifacts, cfg ServingConfig) (ServingResult, error) {
	if cfg.Name == "" {
		cfg.Name = cfg.Topo.Name
	}
	if cfg.Opts.Shards < 0 {
		return ServingResult{}, fmt.Errorf("exper: serving %q: options.shards %d must be at least 1", cfg.Name, cfg.Opts.Shards)
	}
	// Sorted once here, so every shard walks one shared slice.
	cfg.Trace = timeOrdered(cfg.Trace)
	if cfg.Opts.Shards > 1 {
		return runServingSharded(arts, cfg)
	}
	res, _, _, err := runServingCore(arts, cfg, true)
	return res, err
}

// runServingCore executes one serving timeline and returns the sealed
// latency digest — plus the per-class digests of a workload-driven
// run — alongside the result, so the sharded reducer can merge
// per-shard distributions. sink gates the exact-mode test sink:
// sharded sub-runs suppress it and the reducer emits one merged
// distribution under the cell's own name.
func runServingCore(arts *Artifacts, cfg ServingConfig, sink bool) (ServingResult, *latDigest, *tenantDigests, error) {
	opts := cfg.Opts
	opts.Policy = resolvePolicy(cfg.Policy, opts.Policy)
	sketch, err := parseLatencyMode(opts.LatencyMode)
	if err != nil {
		return ServingResult{}, nil, nil, fmt.Errorf("exper: serving %q: %w", cfg.Name, err)
	}
	var ten *tenantRun
	if cfg.Workload.Enabled() {
		ten, err = newTenantRun(&cfg, arts.Apps, sketch)
		if err != nil {
			return ServingResult{}, nil, nil, err
		}
	}
	src, err := newArrivalStream(cfg, arts.Apps, ten)
	if err != nil {
		return ServingResult{}, nil, nil, err
	}
	p, err := NewPlatformTopo(arts, cfg.Topo, opts)
	if err != nil {
		return ServingResult{}, nil, nil, err
	}
	if cfg.Faults != nil && !cfg.Faults.Empty() {
		if err := cfg.Faults.Validate(); err != nil {
			return ServingResult{}, nil, nil, fmt.Errorf("exper: serving %q: %w", cfg.Name, err)
		}
		rt, err := newFaultRuntime(p, cfg.Faults, cfg.Seed, cfg.Duration, sketch)
		if err != nil {
			return ServingResult{}, nil, nil, fmt.Errorf("exper: serving %q: %w", cfg.Name, err)
		}
		p.faults = rt
	}
	if cfg.Admission.Enabled() || cfg.Autoscaler.Enabled() {
		// Installed after the fault runtime: fault events are already
		// scheduled, so one landing exactly on an epoch boundary fires
		// before that epoch's sample (same-instant ties go to the
		// earlier-scheduled event).
		rt, err := newElasticRuntime(p, cfg.Admission, cfg.Autoscaler, cfg.Duration)
		if err != nil {
			return ServingResult{}, nil, nil, fmt.Errorf("exper: serving %q: %w", cfg.Name, err)
		}
		p.elastic = rt
		// The autoscaler starts with part of the entry tier drained.
		p.markEntries()
	}
	res := ServingResult{Name: cfg.Name, Mode: cfg.Mode, RatePerSec: cfg.RatePerSec, Policy: p.PolicyName()}
	if sketch {
		res.LatencyMode = LatencySketch
	}
	lat := newLatDigest(sketch)
	// A request placed on a node becomes visible in the node's run
	// queue only when its launch event executes, which is after every
	// arrival event of the same instant. The entry index therefore
	// counts same-instant placements on top of resident load
	// (assignEntry), so a burst of simultaneous arrivals spreads across
	// the fleet instead of piling onto one node; endBatch clears the
	// counts once the instant is placed.
	//
	// Arrivals are injected lazily through simtime.Feed: one injector
	// event per distinct arrival instant places every request of that
	// instant and then pulls the next instant from the source, so the
	// simulator's event heap holds O(in-flight) entries instead of the
	// whole campaign's O(total requests) — and the stream itself is
	// never materialised, so at cluster scale a million-request cell's
	// working set stays bounded. Batching an instant into one event
	// keeps the eager injector's same-instant order: every placement of the instant happens before any of its
	// launch events executes, which the same-instant bookkeeping relies
	// on to spread a burst (chaining arrivals one event each would let
	// the first launches interleave from the third same-instant arrival
	// on). One ordering edge differs from eager injection — an
	// unrelated event whose firing time lands on exactly an arrival
	// instant's nanosecond now wins the tie; DESIGN.md §7 scopes the
	// determinism contract accordingly.
	complete := func(run RunResult) {
		lat.add(run.Elapsed())
		if p.faults != nil {
			p.faults.observeClass(run.App, run.Elapsed())
		}
	}
	// Each request's completion goes to its cohort's closure and the
	// cohort's SLO class rides into the scheduler's placement context.
	// A workload-free run is one anonymous classless cohort; a
	// workload's closures add per-class digest and deadline accounting
	// on top of the shared complete.
	doneOf, classOf := []func(RunResult){complete}, []string{""}
	if ten != nil {
		ten.bind(complete)
		doneOf, classOf = ten.done, ten.classOf
	}
	inject := func(batch []tenancy.Arrival) {
		now := p.Sim.Now()
		for _, a := range batch {
			app := src.apps[a.Cohort][a.App]
			done, class := doneOf[a.Cohort], classOf[a.Cohort]
			// Entry balancing: the front end places each arriving
			// request on the least-loaded x86 node at its arrival
			// instant (ties toward the lower index — deterministic),
			// the request-serving analogue of RDA's client
			// multiplexing over a server fleet.
			entry := p.leastLoadedX86()
			if p.elastic.overCap(entry, p.entries.assigned[entry.Index]) {
				// Even the least-loaded eligible entry node is at the
				// admission cap: shed the request, or admit it at the
				// degraded CPU-only service class.
				if p.elastic.refuse(entry) {
					continue
				}
				p.assignEntry(entry)
				p.elastic.launchDegraded(entry, app, now, done)
				continue
			}
			p.assignEntry(entry)
			p.LaunchAppOnClass(entry, app, cfg.Mode, class, now, done)
		}
		p.endBatch()
	}
	// Feed fires each returned callback before pulling the next instant,
	// so one pending-batch slot (and one injector closure, reused for
	// every instant) carries the whole stream — no per-instant closure.
	var pending []tenancy.Arrival
	injectPending := func() { inject(pending) }
	p.Sim.Feed(func() (time.Duration, func(), bool) {
		at, batch, ok := src.next()
		if !ok {
			return 0, nil, false
		}
		pending = batch
		return at, injectPending, true
	})
	p.RunFor(cfg.Duration)
	res.Offered = src.total()
	res.Completed = lat.count()
	res.ThroughputPerSec = float64(res.Completed) / cfg.Duration.Seconds()
	lat.seal()
	res.P50 = lat.percentile(50)
	res.P95 = lat.percentile(95)
	res.P99 = lat.percentile(99)
	res.MeanHostLoad = p.Cluster.X86.Pool.JobSeconds() / cfg.Duration.Seconds()
	res.Sched = p.SchedStats()
	res.FPGAReconfigs = p.DeviceReconfigs()
	if p.faults != nil {
		res.Faults = p.faults.finalize(res.Offered, res.Completed)
	}
	if p.elastic != nil {
		p.elastic.finalize(&res, cfg.Duration)
	}
	var tdigs *tenantDigests
	if ten != nil {
		res.Tenancy = ten.finalize(src.offered)
		tdigs = ten.digests()
	}
	if sink && testLatencySink != nil && !sketch {
		testLatencySink(cfg.Name, "latency", lat.exact)
		if p.faults != nil {
			p.faults.sinkExact(cfg.Name)
		}
		if ten != nil {
			ten.sinkExact(cfg.Name)
		}
	}
	return res, lat, tdigs, nil
}

// RunServingSweep fans a serving campaign across the worker pool: each
// config is an isolated simulation, results land in config order, and
// a fixed seed yields byte-identical output regardless of GOMAXPROCS.
// A failing config fails the sweep with the lowest failing index's
// error, unwrapped.
func RunServingSweep(arts *Artifacts, cfgs []ServingConfig) ([]ServingResult, error) {
	out := make([]ServingResult, len(cfgs))
	err := par.ForEach(len(cfgs), func(i int) error {
		r, err := RunServing(arts, cfgs[i])
		out[i] = r
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// percentile is the nearest-rank percentile of an ascending-sorted
// latency slice: the sample at rank ceil(pct/100 · n), with the rank
// clamped to [1, n].
//
// Edge conventions (pinned by TestPercentileNearestRank):
//   - an empty (or nil) slice reports 0 for every pct;
//   - a single sample is every percentile of itself;
//   - pct=0 (and any negative pct) clamps to rank 1, the minimum —
//     nearest-rank has no rank-0 sample;
//   - pct=100 is exactly rank n, the maximum, and larger pct values
//     clamp to it.
//
// The sketch-backed digest (latDigest) and the quantile package's
// Quantile use the same ceil(q·n) rank so exact and sketch modes
// answer the same rank query, differing only by the sketch's bounded
// rank error.
func percentile(sorted []time.Duration, pct int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := (pct*len(sorted) + 99) / 100 // ceil(pct/100 * n)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
