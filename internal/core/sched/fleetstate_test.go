package sched

import (
	"math/rand"
	"testing"

	"xartrek/internal/core/threshold"
	"xartrek/internal/xclbin"
)

// armState builds a fleet state over the given ARM candidates (fleet
// order) with the listed loads; ids absent from loads stay at zero.
func armState(loads map[int]int, ids ...int) *FleetState {
	nodes := 0
	for _, id := range ids {
		if id >= nodes {
			nodes = id + 1
		}
	}
	s := NewFleetState(nodes, ids)
	for id, l := range loads {
		s.SetLoad(id, l)
	}
	return s
}

func TestMinIndexMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 5, 31, 63, 64, 65, 130, 192} {
		m := NewMinIndex(n)
		keys := make([]int, n)
		for step := 0; step < 3000; step++ {
			if n > 0 {
				pos := rng.Intn(n)
				var k int
				switch r := rng.Intn(16); {
				case r == 0 || keys[pos] == Unavailable:
					k = rng.Intn(40) // a jump
				case r == 1:
					k = Unavailable
				default:
					k = max(0, keys[pos]+rng.Intn(3)-1) // mostly ±1 moves
				}
				keys[pos] = k
				m.Set(pos, k)
			}
			wantPos, wantKey := -1, Unavailable
			for p, k := range keys {
				if k < wantKey {
					wantPos, wantKey = p, k
				}
			}
			if pos, key := m.Min(); pos != wantPos || key != wantKey {
				t.Fatalf("n=%d step %d: Min = (%d,%d), scan = (%d,%d) over %v", n, step, pos, key, wantPos, wantKey, keys)
			}
		}
	}
}

// closureScan is the pre-index DefaultPolicy ARM pick: a walk over the
// candidates in fleet order through per-node load and availability
// callbacks, strict < so ties keep the earlier candidate.
func closureScan(arm []int, load func(id int) int, avail func(id int) bool) (int, bool) {
	best, bestLoad, found := 0, 0, false
	for _, id := range arm {
		if !avail(id) {
			continue
		}
		if l := load(id); !found || l < bestLoad {
			best, bestLoad, found = id, l, true
		}
	}
	return best, found
}

// TestIndexedARMPickMatchesClosureScan drives a fleet state through
// random ±1 load moves, node down/up churn and pair partitions, and
// checks after every step that the indexed picks of every policy that
// reads the index (DefaultPolicy, Affinity, classless Deadline) and
// the baseline's partition-blind LeastLoaded agree with the closure
// scan over ground truth, from every entry node.
func TestIndexedARMPickMatchesClosureScan(t *testing.T) {
	const nodes = 14
	// Entry nodes 0-2; ARM candidates in fleet order, including one
	// id above an x86 id to keep ids and positions distinct.
	entries := []int{0, 1, 2}
	arm := []int{3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := NewFleetState(nodes, arm)
		load := make([]int, nodes)
		up := make([]bool, nodes)
		for i := range up {
			up[i] = true
		}
		cut := map[[2]int]bool{}
		policies := []PlacementPolicy{DefaultPolicy{}, NewAffinityPolicy(nil), DeadlinePolicy{}}
		for step := 0; step < 2000; step++ {
			switch r := rng.Intn(10); {
			case r < 6:
				id := arm[rng.Intn(len(arm))]
				if rng.Intn(2) == 0 || load[id] == 0 {
					load[id]++
				} else {
					load[id]--
				}
				st.SetLoad(id, load[id])
			case r < 8:
				id := arm[rng.Intn(len(arm))]
				up[id] = !up[id]
				st.SetUp(id, up[id])
			default:
				a, b := entries[rng.Intn(len(entries))], arm[rng.Intn(len(arm))]
				k := pairKey(a, b)
				cut[k] = !cut[k]
				st.SetPartitioned(a, b, cut[k])
			}
			for _, e := range entries {
				want, wantOK := closureScan(arm,
					func(id int) int { return load[id] },
					func(id int) bool { return up[id] && !cut[pairKey(e, id)] })
				f := &Fleet{State: st, Entry: e}
				for _, pol := range policies {
					got, ok := pol.PickARMNode(testCtx("KNL"), f)
					if got != want || ok != wantOK {
						t.Fatalf("seed %d step %d entry %d %s: pick %d/%v, scan %d/%v",
							seed, step, e, pol.Name(), got, ok, want, wantOK)
					}
				}
			}
			want, wantOK := closureScan(arm,
				func(id int) int { return load[id] },
				func(id int) bool { return up[id] })
			if got, ok := st.LeastLoaded(-1); got != want || ok != wantOK {
				t.Fatalf("seed %d step %d: partition-blind pick %d/%v, scan %d/%v", seed, step, got, ok, want, wantOK)
			}
		}
	}
}

func TestFleetStatePartitionBookkeeping(t *testing.T) {
	st := NewFleetState(4, []int{2, 3})
	st.SetPartitioned(0, 2, true)
	st.SetPartitioned(2, 0, true) // repeat: no double count
	if !st.Partitioned(2, 0) || st.Partitioned(0, 3) || st.Partitioned(1, 2) {
		t.Fatal("partition lookup wrong")
	}
	if st.Available(0, 2) || !st.Available(1, 2) || !st.Available(-1, 2) {
		t.Fatal("availability ignores the cut or leaks it to other entries")
	}
	st.SetLoad(3, 5)
	if id, ok := st.LeastLoaded(0); !ok || id != 3 {
		t.Fatalf("pick from the cut entry = %d/%v, want 3", id, ok)
	}
	if id, ok := st.LeastLoaded(1); !ok || id != 2 {
		t.Fatalf("pick from an uncut entry = %d/%v, want 2", id, ok)
	}
	st.SetPartitioned(0, 2, false)
	st.SetPartitioned(0, 2, false) // repeat: no negative count
	if st.Partitioned(0, 2) {
		t.Fatal("healed partition still cut")
	}
	if id, _ := st.LeastLoaded(0); id != 2 {
		t.Fatalf("pick after heal = %d, want 2", id)
	}
}

// countingPolicy is DefaultPolicy that counts its pick calls.
type countingPolicy struct {
	DefaultPolicy
	arm, dev int
}

func (p *countingPolicy) PickARMNode(ctx PlacementContext, f *Fleet) (int, bool) {
	p.arm++
	return p.DefaultPolicy.PickARMNode(ctx, f)
}

func (p *countingPolicy) PickDevice(ctx PlacementContext, f *Fleet) (int, bool) {
	p.dev++
	return p.DefaultPolicy.PickDevice(ctx, f)
}

func (p *countingPolicy) ReconfigOrder(ctx PlacementContext, f *Fleet, buf []int) []int {
	return p.DefaultPolicy.ReconfigOrder(ctx, f, buf)
}

// TestDecidePlacesOnlyWhenAlgorithm2ReadsTheAnswer pins lazy placement:
// Decide asks the policy for an ARM node only when the load exceeds
// ARMThr and for a card only when it exceeds FPGAThr, and every
// Algorithm 2 branch still decides as its table row says.
func TestDecidePlacesOnlyWhenAlgorithm2ReadsTheAnswer(t *testing.T) {
	check := func(t *testing.T, load, fpgaThr, armThr int, pol *countingPolicy) {
		t.Helper()
		wantARM, wantDev := 0, 0
		if load > armThr {
			wantARM = 1
		}
		if load > fpgaThr {
			wantDev = 1
		}
		if pol.arm != wantARM || pol.dev != wantDev {
			t.Fatalf("load %d (fpgaThr %d, armThr %d): PickARMNode×%d PickDevice×%d, want ×%d ×%d",
				load, fpgaThr, armThr, pol.arm, pol.dev, wantARM, wantDev)
		}
	}
	for _, tc := range algorithm2Cases {
		t.Run(tc.name, func(t *testing.T) {
			var images []*xclbin.XCLBIN
			if tc.imageAvailable {
				images = []*xclbin.XCLBIN{imageWith(t, "KNL")}
			}
			dev := &fakeDevice{kernels: map[string]bool{"KNL": tc.kernelResident}}
			pol := &countingPolicy{}
			srv := NewFleetServer(branchTable(t, tc.fpgaThr, tc.armThr), func() int { return tc.load }, Fleet{
				State:   armState(nil, 0),
				Devices: []Device{dev},
				Policy:  pol,
			}, images)
			d, err := srv.Decide("app", "KNL")
			if err != nil {
				t.Fatal(err)
			}
			if d.Target != tc.wantTarget || d.ReconfigStarted != tc.wantReconfig || len(dev.programs) != tc.wantReconfigures {
				t.Fatalf("decision %+v with %d programs, want %v reconfig=%v programs=%d",
					d, len(dev.programs), tc.wantTarget, tc.wantReconfig, tc.wantReconfigures)
			}
			check(t, tc.load, tc.fpgaThr, tc.armThr, pol)
		})
	}
	// The whole load range under both threshold orders, with an ARM
	// tier that may be entirely down (the Never case).
	for _, thr := range [][2]int{{16, 31}, {31, 16}} {
		for load := 0; load <= 45; load++ {
			for _, armUp := range []bool{true, false} {
				pol := &countingPolicy{}
				st := armState(nil, 0)
				st.SetUp(0, armUp)
				srv := NewFleetServer(branchTable(t, thr[0], thr[1]), func() int { return load }, Fleet{
					State:   st,
					Devices: []Device{&fakeDevice{kernels: map[string]bool{"KNL": true}}},
					Policy:  pol,
				}, nil)
				d, err := srv.Decide("app", "KNL")
				if err != nil {
					t.Fatal(err)
				}
				check(t, load, thr[0], thr[1], pol)
				if d.Target == threshold.TargetARM && !armUp {
					t.Fatalf("load %d: ARM chosen with the ARM tier down", load)
				}
			}
		}
	}
}
