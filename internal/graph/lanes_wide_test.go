package graph

import (
	"testing"

	"infoflow/internal/bitset"
	"infoflow/internal/rng"
)

// wideSeeding draws `lanes` random seed nodes with the identity lane
// assignment (seed k carries lane k) at the smallest width that fits.
func wideSeeding(r *rng.RNG, n, lanes int) ([]NodeID, *bitset.LaneMatrix) {
	w := (lanes + 63) / 64
	seeds := make([]NodeID, lanes)
	seedBits := bitset.NewLaneMatrix(lanes, w)
	for l := range seeds {
		seeds[l] = NodeID(r.Intn(n))
		seedBits.SetBit(l, l)
	}
	return seeds, seedBits
}

// TestReachLanesWideMatchesScalar proves the W-word sweep agrees lane by
// lane with one scalar ReachableInto per seed, across random graphs,
// masks, widths W ∈ {1, 2, 4, 8} and ragged lane counts that leave the
// top word partly empty (65, 511, ...).
func TestReachLanesWideMatchesScalar(t *testing.T) {
	r := rng.New(41)
	sc := NewScratch(0)
	reach := &bitset.LaneMatrix{}
	laneCounts := []int{1, 63, 64, 65, 100, 128, 200, 256, 300, 511, 512}
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(59)
		g := randomTestGraph(r, n, r.Intn(3*n))
		mask, packed := packedMask(r, g.NumEdges(), r.Float64())
		lanes := laneCounts[trial%len(laneCounts)]
		seeds, seedBits := wideSeeding(r, n, lanes)
		g.ReachLanesWideInto(seeds, seedBits, packed, sc, reach)
		if reach.Rows != n || reach.W != seedBits.W {
			t.Fatalf("trial %d: reach shaped %dx%d, want %dx%d", trial, reach.Rows, reach.W, n, seedBits.W)
		}
		for l := 0; l < lanes; l++ {
			want := g.ReachableInto([]NodeID{seeds[l]}, mask, sc, nil)
			for v := 0; v < n; v++ {
				if got := reach.TestBit(v, l); got != want[v] {
					t.Fatalf("trial %d lane %d (seed %d): node %d lane=%v scalar=%v",
						trial, l, seeds[l], v, got, want[v])
				}
			}
		}
		// No lane above the seeded ones may ever light up.
		for v := 0; v < n; v++ {
			for l := lanes; l < reach.Lanes(); l++ {
				if reach.TestBit(v, l) {
					t.Fatalf("trial %d: node %d carries unseeded lane %d", trial, v, l)
				}
			}
		}
	}
}

// TestReachLanesWideZeroAlloc pins the steady-state allocation contract
// of the 512-lane forward sweep the batched estimators run once per
// chunk per thinned sample: once the scratch and the reach matrix have
// their shape, repeated sweeps (mask churn included) allocate nothing.
func TestReachLanesWideZeroAlloc(t *testing.T) {
	r := rng.New(46)
	n := 400
	g := Random(r, n, 1200)
	m := g.NumEdges()
	_, packed := packedMask(r, m, 0.4)
	seeds, seedBits := wideSeeding(r, n, 512)
	sc := NewScratch(n)
	reach := &bitset.LaneMatrix{}
	for warm := 0; warm < 5; warm++ {
		packed.Flip(r.Intn(m))
		g.ReachLanesWideInto(seeds, seedBits, packed, sc, reach)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		packed.Flip(r.Intn(m))
		g.ReachLanesWideInto(seeds, seedBits, packed, sc, reach)
	}); allocs != 0 {
		t.Errorf("steady-state wide sweep allocates %v per run, want 0", allocs)
	}
}

// BenchmarkReachLanesWide measures one 8-word (512-lane) sweep on the
// §IV-C-scale graph — the per-sample cost of answering 512 batched flow
// queries.
func BenchmarkReachLanesWide(b *testing.B) {
	r := rng.New(2)
	g := Random(r, 6000, 14000)
	_, packed := packedMask(r, g.NumEdges(), 0.5)
	sc := NewScratch(g.NumNodes())
	seeds, seedBits := wideSeeding(r, g.NumNodes(), 512)
	reach := &bitset.LaneMatrix{}
	g.ReachLanesWideInto(seeds, seedBits, packed, sc, reach)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ReachLanesWideInto(seeds, seedBits, packed, sc, reach)
	}
}
