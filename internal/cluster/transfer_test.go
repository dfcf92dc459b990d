package cluster

import (
	"testing"
	"time"

	"xartrek/internal/isa"
	"xartrek/internal/popcorn"
	"xartrek/internal/simtime"
)

func slowNet() popcorn.NetModel {
	return popcorn.NetModel{LatencyRTT: 2 * time.Millisecond, BandwidthBps: 12.5e6}
}

func TestCrossRackTopologyShape(t *testing.T) {
	topo := CrossRackTopology("xrack", 2, 1, 2, 3, slowNet())
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(topo.Nodes); got != 5 {
		t.Fatalf("nodes = %d, want 5", got)
	}
	if got := len(topo.FPGAs); got != 3 {
		t.Fatalf("FPGAs = %d, want 3", got)
	}
	// Every rack-A node (2 x86 + 1 near ARM) pairs with every rack-B
	// node (2 far ARM) over the slow model.
	if got := len(topo.Links); got != 6 {
		t.Fatalf("link overrides = %d, want 6 (3 rack-A × 2 rack-B)", got)
	}
	if got := topo.CoresOfArch(isa.ARM64); got != 3*96 {
		t.Fatalf("ARM cores = %d, want %d", got, 3*96)
	}
}

func TestNetBetweenResolvesOverrides(t *testing.T) {
	topo := CrossRackTopology("xrack", 1, 1, 1, 0, slowNet())
	// Cross-rack pair: the override, in either orientation.
	if nm := topo.NetBetween("x86-00", "armb-00"); nm != slowNet() {
		t.Fatalf("x86↔far = %+v, want slow override", nm)
	}
	if nm := topo.NetBetween("armb-00", "x86-00"); nm != slowNet() {
		t.Fatalf("reversed orientation lost the override: %+v", nm)
	}
	// In-rack pair: the default net.
	if nm := topo.NetBetween("x86-00", "arma-00"); nm != popcorn.EthernetGbps1() {
		t.Fatalf("in-rack pair = %+v, want default 1 Gbps", nm)
	}
	// Unknown pair: still the default (NetBetween is a spec-level
	// query, not a validator).
	if nm := topo.NetBetween("x86-00", "ghost"); nm != popcorn.EthernetGbps1() {
		t.Fatalf("unknown pair = %+v, want default", nm)
	}
}

func TestTransferEstimateWeighsLinkSpec(t *testing.T) {
	sim := simtime.New()
	c, err := FromTopology(sim, CrossRackTopology("xrack", 1, 1, 1, 0, slowNet()))
	if err != nil {
		t.Fatal(err)
	}
	host := c.X86
	var near, far *Node
	for _, n := range c.NodesOfArch(isa.ARM64) {
		switch n.Name {
		case "arma-00":
			near = n
		case "armb-00":
			far = n
		}
	}
	const bytes = 26 << 20 // a CG-A working set
	fast := c.TransferEstimate(host, near, bytes)
	slow := c.TransferEstimate(host, far, bytes)
	if fast >= slow {
		t.Fatalf("near transfer %v not below far %v", fast, slow)
	}
	// 1 Gbps vs 100 Mbps: the far estimate is ~10x the near one.
	if slow < 9*fast {
		t.Fatalf("far/near ratio = %.1f, want ≈10", float64(slow)/float64(fast))
	}
	if want := slowNet().TransferTime(bytes); slow != want {
		t.Fatalf("far estimate %v != LinkSpec model %v", slow, want)
	}
}

func TestLinkQueuedTracksInFlightTransfers(t *testing.T) {
	sim := simtime.New()
	c, err := FromTopology(sim, PaperTopology())
	if err != nil {
		t.Fatal(err)
	}
	link := c.Link(c.X86, c.ARM)
	if got := link.Queued(); got != 0 {
		t.Fatalf("idle link Queued = %d, want 0", got)
	}
	done := 0
	link.Submit(time.Second, func() { done++ })
	link.Submit(time.Second, func() { done++ })
	if got := link.Queued(); got != 2 {
		t.Fatalf("Queued = %d, want 2", got)
	}
	sim.Run()
	if done != 2 || link.Queued() != 0 {
		t.Fatalf("after drain: done=%d queued=%d", done, link.Queued())
	}
}

// The triangular link table gives every unordered pair its own link,
// the same one from either end, with overrides landing on their pair.
func TestLinkTableCoversEveryPairOnce(t *testing.T) {
	topo := ScaleOutTopology("t", 3, 4, 0)
	topo.Links = []LinkSpec{{A: topo.Nodes[5].Name, B: topo.Nodes[2].Name, Net: slowNet()}}
	c, err := FromTopology(simtime.New(), topo)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[*Link]bool)
	for i, a := range c.Nodes {
		for j, b := range c.Nodes {
			if i == j {
				continue
			}
			l := c.Link(a, b)
			if l == nil || l != c.Link(b, a) {
				t.Fatalf("pair (%d,%d): link %p, reverse %p", i, j, l, c.Link(b, a))
			}
			wantSlow := (i == 2 && j == 5) || (i == 5 && j == 2)
			if got := l.Net == slowNet(); got != wantSlow {
				t.Fatalf("pair (%d,%d): override applied = %v, want %v", i, j, got, wantSlow)
			}
			if i < j {
				if seen[l] {
					t.Fatalf("pair (%d,%d) shares a link with another pair", i, j)
				}
				seen[l] = true
			}
		}
	}
	if n := len(c.Nodes); len(seen) != n*(n-1)/2 {
		t.Fatalf("%d distinct links, want %d", len(seen), n*(n-1)/2)
	}
}
