package graph

import (
	"infoflow/internal/bitset"
)

// This file is the bit-parallel reachability kernel: every node carries
// a W-word row of a bitset.LaneMatrix, so one sweep over one sampled
// pseudo-state answers up to 64*W single-source reachability queries.
// The sweep has two passes — an iterative Tarjan condensation of the
// active subgraph reachable from the seeds, then a topological lane-mask
// push over the condensation — and each touched edge ORs W words. Both
// passes take the adjacency to walk (g.out forward, g.in reverse; see
// lanes_reverse.go), so one kernel serves both orientations.

// farEnd returns the endpoint of edge e opposite v. v is one endpoint
// and the graph has no self-loops, so From^To^v is To when walking an
// out-edge of v and From when walking an in-edge: the kernel needs no
// direction flag beyond the adjacency it is handed.
func farEnd(e Edge, v NodeID) NodeID { return e.From ^ e.To ^ v }

// condenseInto runs one iterative Tarjan pass over the subgraph of
// active edges reachable from seeds along adj (g.out, or g.in for the
// reverse orientation), writing the SCC id of each reached node into
// sc.comp (-1 elsewhere), the nodes grouped by SCC in emission order
// into sc.sccNodes, and the per-SCC offsets (plus an end sentinel) into
// sc.sccStart. Tarjan emits SCCs descendants first, so iterating the
// starts in reverse visits components in topological order, ancestors
// before descendants.
//
//flowlint:hotpath
func (g *DiGraph) condenseInto(adj [][]EdgeID, seeds []NodeID, active bitset.Set, sc *Scratch) {
	n := g.NumNodes()
	sc.beginCondense(n)
	idx, low, comp := sc.dfsIdx, sc.dfsLow, sc.comp
	onStack := sc.inq
	tstack := sc.back[:0]  // Tarjan's SCC stack
	dfsN := sc.queue[:0]   // DFS stack: frame f visits node dfsN[f]
	dfsE := sc.dfsEdge[:0] // ... with adjacency cursor dfsE[f]
	nodes := sc.sccNodes[:0]
	starts := sc.sccStart[:0]
	var next int32
	for _, root := range seeds {
		if idx[root] != -1 {
			continue
		}
		idx[root], low[root] = next, next
		next++
		onStack.Set(int(root))
		tstack = append(tstack, root)
		dfsN = append(dfsN, root)
		dfsE = append(dfsE, 0)
		for len(dfsN) > 0 {
			f := len(dfsN) - 1
			v := dfsN[f]
			if ei := dfsE[f]; int(ei) < len(adj[v]) {
				dfsE[f]++
				id := adj[v][ei]
				if !active.Test(int(id)) {
					continue
				}
				w := farEnd(g.edges[id], v)
				if idx[w] == -1 {
					idx[w], low[w] = next, next
					next++
					onStack.Set(int(w))
					tstack = append(tstack, w)
					dfsN = append(dfsN, w)
					dfsE = append(dfsE, 0)
				} else if onStack.Test(int(w)) && low[v] > idx[w] {
					low[v] = idx[w]
				}
				continue
			}
			dfsN = dfsN[:f]
			dfsE = dfsE[:f]
			if f > 0 {
				if p := dfsN[f-1]; low[p] > low[v] {
					low[p] = low[v]
				}
			}
			if low[v] == idx[v] {
				c := int32(len(starts))
				starts = append(starts, int32(len(nodes)))
				for {
					w := tstack[len(tstack)-1]
					tstack = tstack[:len(tstack)-1]
					onStack.Clear(int(w))
					comp[w] = c
					nodes = append(nodes, w)
					if w == v {
						break
					}
				}
			}
		}
	}
	starts = append(starts, int32(len(nodes)))
	sc.back = tstack[:0]
	sc.queue = dfsN[:0]
	sc.dfsEdge = dfsE[:0]
	sc.sccNodes = nodes
	sc.sccStart = starts
}

// pushLanesWide propagates W-word lane masks over the condensation
// condenseInto left in sc, along the same adjacency: sc.compWide (one
// W-word row per SCC) is zeroed and seeded from seeds/seedBits, then
// components are visited ancestors first, each reached node's reach row
// overwritten with its component's mask and every active adjacent edge
// ORing the mask into the far endpoint's component. Each active edge
// within the condensed region is touched exactly once here. Rows of
// nodes no lane reaches are never written: the caller hands in a zeroed
// reach matrix.
//
//flowlint:hotpath
func (g *DiGraph) pushLanesWide(adj [][]EdgeID, seeds []NodeID, seedBits *bitset.LaneMatrix, active bitset.Set, sc *Scratch, reach *bitset.LaneMatrix) {
	W := seedBits.W
	comp, nodes, starts := sc.comp, sc.sccNodes, sc.sccStart
	compWide := growCompWide(sc.compWide, (len(starts)-1)*W)
	for k, v := range seeds {
		src := seedBits.Row(k)
		dst := compWide[int(comp[v])*W:]
		for j, w := range src {
			dst[j] |= w
		}
	}
	for c := len(starts) - 2; c >= 0; c-- {
		row := compWide[c*W : c*W+W : c*W+W]
		var lanes uint64
		for _, w := range row {
			lanes |= w
		}
		if lanes == 0 {
			continue
		}
		for i := starts[c]; i < starts[c+1]; i++ {
			v := nodes[i]
			copy(reach.Row(int(v)), row)
			for _, id := range adj[v] {
				if !active.Test(int(id)) {
					continue
				}
				dst := compWide[int(comp[farEnd(g.edges[id], v)])*W:]
				for j, w := range row {
					dst[j] |= w
				}
			}
		}
	}
	sc.compWide = compWide[:0]
}

// growCompWide returns buf resliced (and zeroed) to hold words uint64s,
// growing it when the capacity falls short.
//
//flowlint:hotpath
func growCompWide(buf []uint64, words int) []uint64 {
	if cap(buf) < words {
		// Geometric headroom: the component count varies from sweep to
		// sweep, and an exact-fit allocation here would turn every new
		// high-water mark into a fresh allocation.
		c := 2 * cap(buf)
		if c < words {
			c = words
		}
		//flowlint:ignore hotpath -- grows to the SCC-count high-water mark, then reused for good
		return make([]uint64, words, c)
	}
	buf = buf[:words]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// reachLanesWide is the shared body of the forward and reverse sweeps:
// shape and clear reach, condense along adj, push along adj.
//
//flowlint:hotpath
func (g *DiGraph) reachLanesWide(adj [][]EdgeID, seeds []NodeID, seedBits *bitset.LaneMatrix, active bitset.Set, sc *Scratch, reach *bitset.LaneMatrix) {
	n := g.NumNodes()
	if sc == nil {
		sc = tempScratch(n)
	}
	if reach.Rows != n || reach.W != seedBits.W {
		//flowlint:ignore hotpath -- documented cold fallback on first use or shape change; steady-state callers keep the shape
		reach.Resize(n, seedBits.W)
	} else {
		reach.Reset()
	}
	g.condenseInto(adj, seeds, active, sc)
	g.pushLanesWide(adj, seeds, seedBits, active, sc, reach)
}

// ReachLanesWideInto runs the bit-parallel reachability sweep: seed
// node seeds[k] is OR-seeded with the W-word lane row seedBits.Row(k),
// and on return reach.Row(v) has lane bit L set iff v is reachable
// (across edges whose bit in active is set) from some node seeded with
// L — every seed counting as reaching itself, matching Reachable's
// contract. One sweep answers up to 64*seedBits.W single-source
// reachability queries; lane assignment is the caller's, and seeding
// several nodes with the same lane or one node with several lanes are
// both legal. reach is resized to (NumNodes, seedBits.W) and
// overwritten. If sc is nil a temporary Scratch is allocated.
//
// The condensation is what makes the sweep linear: every node of an SCC
// has the same reach row by definition, so pushing masks over the
// condensation in topological order finalises each SCC's mask before it
// propagates and touches each active edge exactly twice in total. A
// naive monotone worklist instead re-processes a node every time lanes
// merging inside a large component reach it on different frontiers;
// near the percolation threshold the samplers operate at, that costs
// ~8x more pops on the §IV-C reference graph.
//
//flowlint:hotpath
func (g *DiGraph) ReachLanesWideInto(seeds []NodeID, seedBits *bitset.LaneMatrix, active bitset.Set, sc *Scratch, reach *bitset.LaneMatrix) {
	g.reachLanesWide(g.out, seeds, seedBits, active, sc, reach)
}
