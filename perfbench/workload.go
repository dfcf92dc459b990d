package main

import (
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"xartrek/internal/exper"
)

// defaultSeed reproduces the checked-in rack256 and rack1024 cells
// byte for byte; at this seed every report must match its recorded
// digest. heldOutSeed is never used while tuning a change; it only
// confirms a claim already made on other seeds.
const (
	defaultSeed = 2021
	heldOutSeed = 7919
)

// workloadNames lists the workloads in report order; each has a spec
// of the same name under specs/.
var workloadNames = []string{"rack256-1m", "rack1024-sharded", "scenario-mix"}

//go:embed specs/*.json
var specFS embed.FS

// digestFile is the recorded correctness fingerprint: per workload,
// the SHA-256 of the JSON report and of each cell at defaultSeed.
type digestFile struct {
	Seed      int64                     `json:"seed"`
	Workloads map[string]workloadDigest `json:"workloads"`
}

type workloadDigest struct {
	Report string   `json:"report"`
	Cells  []string `json:"cells"`
}

func loadDigests() (digestFile, error) {
	var d digestFile
	b, err := specFS.ReadFile("specs/digests.json")
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(b, &d); err != nil {
		return d, fmt.Errorf("specs/digests.json: %w", err)
	}
	return d, nil
}

func specBytes(workload string) ([]byte, error) {
	for _, w := range workloadNames {
		if w == workload {
			return specFS.ReadFile("specs/" + w + ".json")
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
}

// parseSpec parses a workload's spec, gives every cell the benchmark
// seed and expands it, so the program sees only the generated inputs.
func parseSpec(raw []byte, seed int64) (*exper.CampaignSpec, []exper.CellSpec, error) {
	spec, err := exper.ParseCampaign(bytes.NewReader(raw))
	if err != nil {
		return nil, nil, err
	}
	for i := range spec.Cells {
		spec.Cells[i].Seed, spec.Cells[i].Seeds = seed, nil
	}
	cells, err := spec.Expand()
	if err != nil {
		return nil, nil, err
	}
	return spec, cells, nil
}

// digestReport returns the SHA-256 of the marshalled report and of
// each marshalled cell.
func digestReport(rep *exper.Report) (string, []string, error) {
	b, err := json.Marshal(rep)
	if err != nil {
		return "", nil, err
	}
	cells := make([]string, len(rep.Cells))
	for i := range rep.Cells {
		cb, err := json.Marshal(rep.Cells[i])
		if err != nil {
			return "", nil, err
		}
		cells[i] = sha(cb)
	}
	return sha(b), cells, nil
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// servingOf returns the serving result a cell reports: its own for
// serving cells, the at-knee probe's for knee cells, nil otherwise.
func servingOf(c *exper.CellResult) *exper.ServingResult {
	if c.Knee != nil {
		return c.Knee.AtKnee
	}
	return c.Serving
}

// checkCell returns the invariant violations of one reported cell:
// completed ≤ offered, p50 ≤ p95 ≤ p99 (overall and per SLO class) and
// the scheduler's per-target decisions summing to its decision count.
func checkCell(c *exper.CellResult) []string {
	r := servingOf(c)
	if r == nil {
		return []string{"no serving result"}
	}
	var bad []string
	if r.Completed > r.Offered {
		bad = append(bad, fmt.Sprintf("completed %d > offered %d", r.Completed, r.Offered))
	}
	if r.Offered <= 0 {
		bad = append(bad, "nothing offered")
	}
	if !(r.P50 <= r.P95 && r.P95 <= r.P99) {
		bad = append(bad, fmt.Sprintf("percentiles out of order: p50=%v p95=%v p99=%v", r.P50, r.P95, r.P99))
	}
	s := r.Sched
	if s.ToX86+s.ToARM+s.ToFPGA != s.Requests {
		bad = append(bad, fmt.Sprintf("to_x86 %d + to_arm %d + to_fpga %d != decisions %d", s.ToX86, s.ToARM, s.ToFPGA, s.Requests))
	}
	if t := r.Tenancy; t != nil {
		for _, cl := range t.Classes {
			if cl.Completed > cl.Offered {
				bad = append(bad, fmt.Sprintf("class %s: completed %d > offered %d", cl.Class, cl.Completed, cl.Offered))
			}
			if !(cl.P50 <= cl.P95 && cl.P95 <= cl.P99) {
				bad = append(bad, fmt.Sprintf("class %s: percentiles out of order", cl.Class))
			}
		}
	}
	return bad
}

// counts sums the per-layer counters of every reported cell.
func counts(rep *exper.Report, cells []exper.CellSpec) map[string]float64 {
	m := map[string]float64{"exper.cells": float64(len(rep.Cells))}
	var started, attempts float64
	for i := range rep.Cells {
		r := servingOf(&rep.Cells[i])
		if r == nil {
			continue
		}
		m["exper.offered"] += float64(r.Offered)
		m["exper.completed"] += float64(r.Completed)
		m["sched.decisions"] += float64(r.Sched.Requests)
		m["sched.to_x86"] += float64(r.Sched.ToX86)
		m["sched.to_arm"] += float64(r.Sched.ToARM)
		m["sched.to_fpga"] += float64(r.Sched.ToFPGA)
		started += float64(r.Sched.ReconfigsStarted)
		attempts += float64(r.Sched.ReconfigsStarted + r.Sched.ReconfigsSkippedPending + r.Sched.ReconfigsAllBusy)
		m["fpga.reconfigs"] += float64(r.FPGAReconfigs)
		if r.Faults != nil {
			m["exper.faults.retried"] += float64(r.Faults.RequestsRetried)
		}
		m["exper.elastic.shed"] += float64(r.Shed)
	}
	m["sched.reconfig_attempts"] = attempts
	if attempts > 0 {
		m["sched.reconfig_useful_ratio"] = started / attempts
	}
	shards := 1
	for _, c := range cells {
		if c.Options != nil && c.Options.Shards > shards {
			shards = c.Options.Shards
		}
	}
	m["par.shards"] = float64(shards)
	return m
}
