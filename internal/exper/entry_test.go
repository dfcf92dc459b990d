package exper

import (
	"math/rand"
	"testing"
	"time"

	"xartrek/internal/cluster"
	"xartrek/internal/core/sched"
	"xartrek/internal/faults"
	"xartrek/internal/isa"
	"xartrek/internal/simtime"
)

// scanEntry is the pre-index entry pick: a walk over the x86 tier in
// fleet order through the eligibility gate and the load sample, plus
// the caller's same-instant counts (nil for none).
func scanEntry(p *Platform, extra []int) *cluster.Node {
	var best *cluster.Node
	bestLoad := 0
	for _, n := range p.Cluster.NodesOfArch(isa.X86_64) {
		if !p.entryEligible(n) {
			continue
		}
		l := p.nodeLoad(n)
		if extra != nil {
			l += extra[n.Index]
		}
		if best == nil || l < bestLoad {
			best, bestLoad = n, l
		}
	}
	if best == nil {
		return p.Cluster.X86
	}
	return best
}

// scanARM is the pre-index DefaultPolicy ARM pick from one entry node:
// run-queue loads read from the pools, availability from the fault
// runtime's node flags and the cut pairs (from < 0 ignores cuts).
func scanARM(p *Platform, from int, cut map[linkPair]bool) (int, bool) {
	best, bestLoad, found := 0, 0, false
	for _, n := range p.Cluster.NodesOfArch(isa.ARM64) {
		if !p.faults.placeable(n.Index) || (from >= 0 && cut[pairOf(from, n.Index)]) {
			continue
		}
		if l := n.Load(); !found || l < bestLoad {
			best, bestLoad, found = n.Index, l, true
		}
	}
	return best, found
}

// TestIndexedPicksMatchClosureScan drives a platform through random run
// queue churn (submissions, cancellations, completions), processes
// blocked on decisions, node down/up/drain events, pair partitions,
// autoscaler drains and same-instant placement batches, and checks
// after every step that the indexed entry pick, every entry node's
// indexed ARM pick and the baseline's ARM pick agree with the scans
// they replaced.
func TestIndexedPicksMatchClosureScan(t *testing.T) {
	arts := testArtifacts(t)
	for seed := int64(1); seed <= 3; seed++ {
		p, err := NewPlatformTopo(arts, cluster.ScaleOutTopology("diff", 5, 9, 0), Options{})
		if err != nil {
			t.Fatal(err)
		}
		frt, err := newFaultRuntime(p, &faults.Spec{}, seed, time.Hour, false)
		if err != nil {
			t.Fatal(err)
		}
		p.faults = frt
		ert := &elasticRuntime{p: p, inactive: make([]bool, len(p.Cluster.Nodes))}
		p.elastic = ert
		x86 := p.Cluster.NodesOfArch(isa.X86_64)
		arm := p.Cluster.NodesOfArch(isa.ARM64)
		all := p.Cluster.Nodes
		rng := rand.New(rand.NewSource(seed))
		var jobs []*simtime.PSJob
		cut := map[linkPair]bool{}
		check := func(step int, what string) {
			t.Helper()
			if got, want := p.leastLoadedX86(), scanEntry(p, nil); got != want {
				t.Fatalf("seed %d step %d (%s): entry pick %s, scan %s", seed, step, what, got.Name, want.Name)
			}
			for _, e := range x86 {
				f := &sched.Fleet{State: p.fleet, Entry: e.Index}
				got, ok := sched.DefaultPolicy{}.PickARMNode(sched.PlacementContext{}, f)
				want, wantOK := scanARM(p, e.Index, cut)
				if got != want || ok != wantOK {
					t.Fatalf("seed %d step %d (%s): ARM pick from %s = %d/%v, scan %d/%v",
						seed, step, what, e.Name, got, ok, want, wantOK)
				}
			}
			want, wantOK := scanARM(p, -1, nil)
			got := p.leastLoadedARM()
			if (got != nil) != wantOK || (got != nil && got.Index != want) {
				t.Fatalf("seed %d step %d (%s): baseline ARM pick %v, scan %d/%v", seed, step, what, got, want, wantOK)
			}
		}
		for step := 0; step < 3000; step++ {
			var what string
			switch r := rng.Intn(20); {
			case r < 6:
				what = "submit"
				n := all[rng.Intn(len(all))]
				work := time.Duration(1+rng.Intn(400)) * time.Millisecond
				jobs = append(jobs, n.Pool.Submit(work, nil))
			case r < 8 && len(jobs) > 0:
				what = "cancel"
				i := rng.Intn(len(jobs))
				jobs[i].Cancel()
				jobs[i] = jobs[len(jobs)-1]
				jobs = jobs[:len(jobs)-1]
			case r < 10:
				what = "advance"
				p.Sim.RunUntil(p.Sim.Now() + time.Duration(rng.Intn(100))*time.Millisecond)
			case r < 12:
				// The bracket execXarTrek puts around a decision, with
				// the node's run queue moving inside it: the key the
				// observer writes must not count the deciding process.
				what = "deciding"
				n := x86[rng.Intn(len(x86))]
				p.deciding[n.Index]++
				work := time.Duration(1+rng.Intn(400)) * time.Millisecond
				jobs = append(jobs, n.Pool.Submit(work, nil))
				p.deciding[n.Index]--
			case r < 15:
				what = "node event"
				n := all[rng.Intn(len(all))]
				kinds := []faults.Kind{faults.NodeDown, faults.NodeUp, faults.NodeDrain, faults.NodeUndrain}
				k := kinds[rng.Intn(len(kinds))]
				if k == faults.NodeDown && n == p.Cluster.X86 {
					k = faults.NodeDrain // the scheduler host never crashes
				}
				frt.apply(faults.Event{Kind: k}, n.Index, -1, linkPair{})
			case r < 17:
				what = "partition"
				pair := pairOf(x86[rng.Intn(len(x86))].Index, arm[rng.Intn(len(arm))].Index)
				kind := faults.LinkPartition
				if cut[pair] {
					kind = faults.LinkRestore
				}
				cut[pair] = !cut[pair]
				frt.apply(faults.Event{Kind: kind}, -1, -1, pair)
			case r < 18:
				what = "autoscaler"
				n := x86[1+rng.Intn(len(x86)-1)] // never the host
				ert.setInactive(n, !ert.inactive[n.Index])
			default:
				// One same-instant batch, checked pick by pick against
				// the scan with the batch's counts as extra.
				what = "batch"
				extra := make([]int, len(all))
				for k := rng.Intn(12); k > 0; k-- {
					got, want := p.leastLoadedX86(), scanEntry(p, extra)
					if got != want {
						t.Fatalf("seed %d step %d: batch pick %s, scan %s", seed, step, got.Name, want.Name)
					}
					extra[got.Index]++
					p.assignEntry(got)
				}
				p.endBatch()
			}
			check(step, what)
		}
	}
}
