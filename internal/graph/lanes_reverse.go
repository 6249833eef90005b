package graph

import (
	"infoflow/internal/bitset"
)

// ReachLanesWideReverseInto is the reverse-orientation counterpart of
// ReachLanesWideInto: root roots[k] is OR-seeded with the W-word lane
// row rootBits.Row(k), and on return reach.Row(u) has lane bit L set
// iff u can reach (across edges whose bit in active is set) some node
// seeded with L — every root counting as reaching itself. Equivalently,
// lane L of the result is the reverse-reachability set of the nodes
// carrying L, which is bit-for-bit what the forward sweep computes on
// the transposed graph (same node IDs, each edge u->v re-added as
// v->u under the same EdgeID). One sweep answers up to 64*rootBits.W
// RR-set queries — the kernel the RIS-style influence-maximization
// estimator needs; lane assignment is the caller's, and shared or
// merged lanes are legal exactly as in the forward sweep. reach is
// resized to (NumNodes, rootBits.W) and overwritten. If sc is nil a
// temporary Scratch is allocated.
//
// The sweep walks the graph's in-edge adjacency (g.in, maintained since
// construction) rather than materialising a transposed CSR per call. An
// SCC is direction-invariant, so the condensation it discovers is the
// forward condensation of the transposed graph.
//
//flowlint:hotpath
func (g *DiGraph) ReachLanesWideReverseInto(roots []NodeID, rootBits *bitset.LaneMatrix, active bitset.Set, sc *Scratch, reach *bitset.LaneMatrix) {
	g.reachLanesWide(g.in, roots, rootBits, active, sc, reach)
}
