package exper

import (
	"xartrek/internal/cluster"
	"xartrek/internal/core/sched"
	"xartrek/internal/isa"
)

// entryIndex is the serving front end's view of the x86 entry tier as
// data: a min-index over the x86 nodes in fleet order, keyed by each
// node's entryLoad plus the requests the current same-instant batch has
// already placed there (sched.Unavailable for a node that accepts no
// arrivals). Every input of the key re-keys its node when it changes —
// the node's run queue (PSServer observer), the FIFO gate's queue, the
// batch counts, and fault and autoscaler eligibility — so the
// least-loaded pick is the index's root instead of a scan per arrival.
type entryIndex struct {
	index sched.MinIndex
	// nodes is the x86 tier in fleet order (index positions); pos maps
	// a cluster node index back to its position (-1 for non-x86
	// nodes).
	nodes []*cluster.Node
	pos   []int
	// assigned counts, per node index, the requests the injector has
	// placed during the current same-instant batch; touched lists the
	// nodes with a nonzero count so the batch reset is O(touched).
	assigned []int
	touched  []int
}

func newEntryIndex(c *cluster.Cluster) entryIndex {
	x86 := c.NodesOfArch(isa.X86_64)
	e := entryIndex{
		index:    sched.NewMinIndex(len(x86)),
		nodes:    x86,
		pos:      make([]int, len(c.Nodes)),
		assigned: make([]int, len(c.Nodes)),
	}
	for i := range e.pos {
		e.pos[i] = -1
	}
	for i, n := range x86 {
		e.pos[n.Index] = i
	}
	return e
}

// markEntry re-keys an entry node after one of its key's inputs
// changed. Non-x86 nodes are ignored.
func (p *Platform) markEntry(n *cluster.Node) {
	e := &p.entries
	pos := e.pos[n.Index]
	if pos < 0 {
		return
	}
	key := sched.Unavailable
	if p.entryEligible(n) {
		key = p.entryLoad(n) + e.assigned[n.Index]
	}
	e.index.Set(pos, key)
}

// markEntries re-keys every entry node (after a runtime that gates
// eligibility is installed).
func (p *Platform) markEntries() {
	for _, n := range p.entries.nodes {
		p.markEntry(n)
	}
}

// leastLoadedX86 picks the entry node the serving front end assigns an
// arriving request to: least loaded (including the current batch's
// same-instant placements), ties toward the lower index, among the
// nodes that accept arrivals.
func (p *Platform) leastLoadedX86() *cluster.Node {
	pos, key := p.entries.index.Min()
	if key == sched.Unavailable {
		// Every x86 node is crashed or draining: the scheduler host
		// (which fault validation keeps alive) absorbs arrivals even
		// while draining, so the front end never wedges.
		return p.Cluster.X86
	}
	return p.entries.nodes[pos]
}

// assignEntry counts one same-instant placement on an entry node.
func (p *Platform) assignEntry(n *cluster.Node) {
	if p.entries.assigned[n.Index] == 0 {
		p.entries.touched = append(p.entries.touched, n.Index)
	}
	p.entries.assigned[n.Index]++
	p.markEntry(n)
}

// endBatch clears the same-instant placement counts once a batch is
// placed, so picks outside a batch (fault retries) and the next batch
// see only resident load.
func (p *Platform) endBatch() {
	for _, idx := range p.entries.touched {
		p.entries.assigned[idx] = 0
		p.markEntry(p.Cluster.Nodes[idx])
	}
	p.entries.touched = p.entries.touched[:0]
}
