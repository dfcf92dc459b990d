package sched

import (
	"math"
	"math/bits"
)

// Unavailable is the MinIndex key of a position that must never win a
// pick (a crashed, draining or otherwise excluded node). It sorts after
// every real load.
const Unavailable = math.MaxInt

// MinIndex indexes positions 0..n-1 by an int key. Min returns the
// position with the smallest key, ties broken toward the lower
// position — the fleet-order tie-break every placement rule documents
// — and Set moves one position to a new key. Positions are fleet
// order, so the index answers "least-loaded available node, lowest
// index first" without a scan.
//
// It is a bucket queue: one bitset of positions per key value, the
// count of positions in each bucket and the lowest nonempty bucket.
// Loads move by one process at a time, so Set is O(1) in the common
// case — when the lowest bucket empties, the next nonempty bucket is
// at most as far above it as the moved key — and Min reads the lowest
// bucket's first set bit, O(n/64). Unavailable positions sit in no
// bucket.
type MinIndex struct {
	key []int
	// words is the bitset length per bucket; bucket k occupies
	// bits[k*words : (k+1)*words] and holds count[k] positions.
	words int
	bits  []uint64
	count []int
	// min is the lowest nonempty bucket, -1 when every key is
	// Unavailable.
	min int
}

// NewMinIndex returns an index over n positions, every key zero.
func NewMinIndex(n int) MinIndex {
	m := MinIndex{key: make([]int, n), words: (n + 63) / 64, min: -1}
	m.grow(0)
	for p := 0; p < n; p++ {
		m.bits[p>>6] |= 1 << (p & 63)
	}
	if n > 0 {
		m.count[0], m.min = n, 0
	}
	return m
}

// grow extends the buckets to cover key k.
func (m *MinIndex) grow(k int) {
	for len(m.count) <= k {
		m.count = append(m.count, 0)
		for w := 0; w < m.words; w++ {
			m.bits = append(m.bits, 0)
		}
	}
}

// Set moves position pos to key, which must be non-negative or
// Unavailable (a load); the buckets grow to the largest key seen.
func (m *MinIndex) Set(pos, key int) {
	old := m.key[pos]
	if old == key {
		return
	}
	m.key[pos] = key
	w, bit := pos>>6, uint64(1)<<(pos&63)
	if old != Unavailable {
		m.bits[old*m.words+w] &^= bit
		m.count[old]--
	}
	if key != Unavailable {
		m.grow(key)
		m.bits[key*m.words+w] |= bit
		m.count[key]++
		if m.min < 0 || key < m.min {
			m.min = key
			return
		}
	}
	if old == m.min && m.count[old] == 0 {
		// The lowest bucket emptied; when pos moved up, its new
		// bucket bounds the search.
		m.min = -1
		for k := old + 1; k < len(m.count); k++ {
			if m.count[k] > 0 {
				m.min = k
				break
			}
		}
	}
}

// Min reports the winning position and its key: the smallest key, the
// lowest position among equal keys. With no position below Unavailable
// it reports (-1, Unavailable).
func (m *MinIndex) Min() (pos, key int) {
	if m.min < 0 {
		return -1, Unavailable
	}
	row := m.bits[m.min*m.words : (m.min+1)*m.words]
	for w, b := range row {
		if b != 0 {
			return w<<6 + bits.TrailingZeros64(b), m.min
		}
	}
	panic("sched: MinIndex bucket count out of sync")
}

// FleetState is the ARM tier's placement state as data, shared by every
// entry node's scheduler server. The platform writes it — each node's
// resident process count when its run queue changes, each node's
// availability when a fault event fires, each pair partition as it
// starts and heals — and placement policies read plain slices instead
// of calling back into the platform per candidate.
//
// A MinIndex over the ARM candidates, keyed by load (Unavailable for a
// node that does not accept placements), answers DefaultPolicy's
// least-loaded pick in O(1). Pair partitions are per entry node, so
// they stay out of the index: a pick from an entry node with an active
// partition falls back to a scan over the slices.
type FleetState struct {
	// arm lists the ARM candidates' node ids in fleet order; pos maps a
	// node id back to its position (-1 for non-candidates).
	arm []int
	pos []int
	// load and up are indexed by node id.
	load []int
	up   []bool
	// cuts counts the active partitions touching each node id; pairs
	// holds them (allocated on the first partition).
	cuts  []int
	pairs map[[2]int]struct{}
	index MinIndex
}

// NewFleetState returns the state of a fleet whose node ids run
// 0..nodes-1, with arm (ids in fleet order) as the ARM candidates.
// Every node starts up with load zero and no partition.
func NewFleetState(nodes int, arm []int) *FleetState {
	s := &FleetState{
		arm:   arm,
		pos:   make([]int, nodes),
		load:  make([]int, nodes),
		up:    make([]bool, nodes),
		cuts:  make([]int, nodes),
		index: NewMinIndex(len(arm)),
	}
	for i := range s.pos {
		s.pos[i] = -1
		s.up[i] = true
	}
	for p, id := range arm {
		s.pos[id] = p
	}
	return s
}

// ARMNodes lists the ARM candidates in fleet order (nil for a nil
// state). Callers must not mutate the slice.
func (s *FleetState) ARMNodes() []int {
	if s == nil {
		return nil
	}
	return s.arm
}

// Load reports a node's resident process count as last written.
func (s *FleetState) Load(id int) int { return s.load[id] }

// SetLoad records a node's resident process count.
func (s *FleetState) SetLoad(id, load int) {
	s.load[id] = load
	s.reindex(id)
}

// SetUp records whether a node accepts placements at all (it is neither
// crashed nor draining).
func (s *FleetState) SetUp(id int, up bool) {
	s.up[id] = up
	s.reindex(id)
}

// reindex refreshes a candidate's key after its load or availability
// changed.
func (s *FleetState) reindex(id int) {
	p := s.pos[id]
	if p < 0 {
		return
	}
	key := s.load[id]
	if !s.up[id] {
		key = Unavailable
	}
	s.index.Set(p, key)
}

// pairKey normalises an unordered node pair.
func pairKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// SetPartitioned records that the link between nodes a and b is cut
// (or healed). Repeating the current state is a no-op.
func (s *FleetState) SetPartitioned(a, b int, cut bool) {
	k := pairKey(a, b)
	if _, ok := s.pairs[k]; ok == cut {
		return
	}
	if cut {
		if s.pairs == nil {
			s.pairs = make(map[[2]int]struct{})
		}
		s.pairs[k] = struct{}{}
		s.cuts[a]++
		s.cuts[b]++
		return
	}
	delete(s.pairs, k)
	s.cuts[a]--
	s.cuts[b]--
}

// Partitioned reports whether the link between nodes a and b is cut.
func (s *FleetState) Partitioned(a, b int) bool {
	if s.cuts[a] == 0 || s.cuts[b] == 0 {
		return false
	}
	_, ok := s.pairs[pairKey(a, b)]
	return ok
}

// Available reports whether node id accepts a placement from node
// from: it is up and their link is not cut. A negative from ignores
// partitions.
func (s *FleetState) Available(from, id int) bool {
	return s.up[id] && (from < 0 || !s.Partitioned(from, id))
}

// LeastLoaded returns the least-loaded ARM candidate available from
// node from, ties toward fleet order; ok=false when none is available.
// A negative from ignores partitions. The pick reads the index in O(1)
// unless from has an active partition, which costs one scan.
func (s *FleetState) LeastLoaded(from int) (id int, ok bool) {
	if s == nil {
		return 0, false
	}
	if from < 0 || s.cuts[from] == 0 {
		p, key := s.index.Min()
		if key == Unavailable {
			return 0, false
		}
		return s.arm[p], true
	}
	best, bestLoad, found := 0, 0, false
	for _, id := range s.arm {
		if !s.Available(from, id) {
			continue
		}
		if l := s.load[id]; !found || l < bestLoad {
			best, bestLoad, found = id, l, true
		}
	}
	return best, found
}
