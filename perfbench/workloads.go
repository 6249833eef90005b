package main

import (
	"fmt"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/rng"
)

// Query kinds, named after their endpoints.
const (
	kindFlow      = "flow"
	kindCommunity = "community"
	kindImpact    = "impact"
	kindMaximize  = "maximize"
)

// How a workload's client sends requests.
const (
	driveSolo  = "solo"  // one closed-loop client, one request in flight
	driveBurst = "burst" // closed loop of bursts, one burst in flight
	driveOpen  = "open"  // open loop on a seeded Poisson schedule
)

// spec is one workload: the server configuration it runs against and
// the request stream its client sends. BENCHMARK.json and DESIGN.md
// record the reason for each choice.
type spec struct {
	name    string
	drive   string
	window  time.Duration // serve.Config.Window; 0 keeps the server default
	samples int           // samples= on every chain request
	burst   int           // requests per burst (driveBurst)
	rate    float64       // arrivals per second (driveOpen)
	// next returns request i of a solo stream or burst i of a burst
	// stream; it depends only on the generator's seed and i.
	next func(g *gen, i int) []request
	// schedule returns an open loop's arrivals over dur.
	schedule func(g *gen, rate float64, dur time.Duration) []request
}

var specs = []spec{
	{name: "flow-solo", drive: driveSolo, samples: 32, next: nextFlowSolo},
	{name: "flow-burst", drive: driveBurst, window: time.Minute, samples: 32, burst: 512, next: nextFlowBurst},
	{name: "cond-solo", drive: driveSolo, samples: 2, next: nextCondSolo},
	{name: "mixed-open", drive: driveOpen, samples: 4, rate: 20, schedule: mixedSchedule},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// request is one generated query. Its fields are everything the server
// receives and everything the replay needs to recompute the answer.
type request struct {
	kind    string
	source  graph.NodeID
	sink    graph.NodeID
	sources []graph.NodeID // kindImpact
	conds   []core.FlowCondition
	samples int
	seed    uint64 // chain seed
	k       int    // kindMaximize seed budget
	repeat  int    // index of the request this one repeats, or -1
	due     time.Duration
	group   int // burst index, or the request's own index
}

func (q *request) path() string {
	v := url.Values{}
	switch q.kind {
	case kindFlow:
		v.Set("source", strconv.Itoa(int(q.source)))
		v.Set("sink", strconv.Itoa(int(q.sink)))
	case kindCommunity:
		v.Set("source", strconv.Itoa(int(q.source)))
	case kindImpact:
		parts := make([]string, len(q.sources))
		for i, s := range q.sources {
			parts[i] = strconv.Itoa(int(s))
		}
		v.Set("sources", strings.Join(parts, ","))
	case kindMaximize:
		v.Set("k", strconv.Itoa(q.k))
	}
	if len(q.conds) > 0 {
		parts := make([]string, len(q.conds))
		for i, c := range q.conds {
			req := 0
			if c.Require {
				req = 1
			}
			parts[i] = fmt.Sprintf("%d>%d=%d", c.Source, c.Sink, req)
		}
		v.Set("cond", strings.Join(parts, ","))
	}
	v.Set("samples", strconv.Itoa(q.samples))
	v.Set("seed", strconv.FormatUint(q.seed, 10))
	return "/" + q.kind + "?" + v.Encode()
}

// gen draws requests for one model from one workload seed.
type gen struct {
	m       *core.ICM
	seed    uint64
	samples int

	scc      []graph.NodeID // giantSCC, once computed
	sccEdges []graph.Edge
}

// stream returns the RNG of item i of a numbered stream, so item i is
// the same whatever was drawn before it.
func (g *gen) stream(kind, i int) *rng.RNG {
	return rng.NewStream(g.seed, uint64(kind)<<32|uint64(i))
}

// modelSeed fixes the model across workload seeds. The model is near
// critical (mean active out-degree about 1.17), so the size of its giant
// component, and with it the cost of every sweep and condition check,
// moves a lot from one random graph to the next: p50 latency on
// flow-burst varied 16% (quartile spread) over five model seeds against
// 3% over five runs of one. The workload seed draws the requests.
const modelSeed = 1

// buildModel is the §IV-C model: graph.Random(nodes, edges) with edge
// probabilities p ~ U(0,1), all drawn from modelSeed.
func buildModel(nodes, edges int) *core.ICM {
	r := rng.NewStream(modelSeed, 0)
	g := graph.Random(r, nodes, edges)
	p := make([]float64, g.NumEdges())
	for i := range p {
		p[i] = r.Float64()
	}
	return core.MustNewICM(g, p)
}

func drawPair(r *rng.RNG, n int) (graph.NodeID, graph.NodeID) {
	s := r.Intn(n)
	t := r.Intn(n - 1)
	if t >= s {
		t++
	}
	return graph.NodeID(s), graph.NodeID(t)
}

// chainSeed draws a nonzero chain seed.
func chainSeed(r *rng.RNG) uint64 { return r.Uint64() | 1 }

func nextFlowSolo(g *gen, i int) []request {
	r := g.stream(1, i)
	s, t := drawPair(r, g.m.NumNodes())
	return []request{{kind: kindFlow, source: s, sink: t, samples: g.samples,
		seed: chainSeed(r), repeat: -1, group: i}}
}

// nextFlowBurst draws burst i: 512 distinct pairs on one fresh seed.
func nextFlowBurst(g *gen, i int) []request {
	r := g.stream(2, i)
	seed := chainSeed(r)
	n := g.m.NumNodes()
	seen := make(map[[2]graph.NodeID]bool, 512)
	out := make([]request, 0, 512)
	for len(out) < 512 {
		s, t := drawPair(r, n)
		if seen[[2]graph.NodeID{s, t}] {
			continue
		}
		seen[[2]graph.NodeID{s, t}] = true
		out = append(out, request{kind: kindFlow, source: s, sink: t, samples: g.samples,
			seed: seed, repeat: -1, group: i})
	}
	return out
}

// giantSCC returns the nodes of the largest strongly connected
// component of the model's positive-probability edges, and the edges
// inside it, computing them once per generator.
func (g *gen) giantSCC() ([]graph.NodeID, []graph.Edge) {
	if g.scc != nil {
		return g.scc, g.sccEdges
	}
	pos := graph.New(g.m.NumNodes())
	for id := 0; id < g.m.NumEdges(); id++ {
		if g.m.P[id] > 0 {
			e := g.m.G.Edge(graph.EdgeID(id))
			pos.MustAddEdge(e.From, e.To)
		}
	}
	labels, count := pos.StronglyConnectedComponents()
	size := make([]int, count)
	for _, l := range labels {
		size[l]++
	}
	big := 0
	for l := range size {
		if size[l] > size[big] {
			big = l
		}
	}
	for v, l := range labels {
		if l == big {
			g.scc = append(g.scc, graph.NodeID(v))
		}
	}
	for _, e := range pos.Edges() {
		if labels[e.From] == big && labels[e.To] == big {
			g.sccEdges = append(g.sccEdges, e)
		}
	}
	return g.scc, g.sccEdges
}

// heavyPool is the number of heavy conditions cond-solo cycles through.
const heavyPool = 16

// nextCondSolo draws request i of the conditioned stream, a fixed
// pattern of one heavy request to three light ones, alternating /flow
// and /community. A heavy request requires the flow between a pair of
// nodes of the giant component: every chain step then searches a long
// way for the required path, so it costs 15-25 times an unconditioned
// step. Its cost depends on the pair, so the pairs come from a pool of
// heavyPool drawn with the model, the same for every seed, and the seed
// picks where in the pool a run starts; measured over five seeds, pairs
// drawn afresh spread p90 latency 12%. A light request forbids the flow
// along a random edge of the giant component, which the chain checks
// cheaply. Both are satisfiable: the giant component holds a
// positive-probability path for the first, and the empty state
// satisfies the second.
func nextCondSolo(g *gen, i int) []request {
	r := g.stream(3, i)
	nodes, edges := g.giantSCC()
	var c core.FlowCondition
	if i%4 == 0 {
		pool := rng.NewStream(modelSeed, 1)
		pick := (i/4 + int(g.seed%heavyPool)) % heavyPool
		for k := 0; k <= pick; k++ {
			c.Source = nodes[pool.Intn(len(nodes))]
			for c.Sink = c.Source; c.Sink == c.Source; {
				c.Sink = nodes[pool.Intn(len(nodes))]
			}
		}
		c.Require = true
	} else {
		e := edges[r.Intn(len(edges))]
		c = core.FlowCondition{Source: e.From, Sink: e.To}
	}
	q := request{kind: kindFlow, conds: []core.FlowCondition{c}, samples: g.samples, repeat: -1, group: i}
	if i%2 == 1 || i%8 == 4 {
		q.kind = kindCommunity
		q.source = graph.NodeID(r.Intn(g.m.NumNodes()))
	} else {
		q.source, q.sink = drawPair(r, g.m.NumNodes())
	}
	q.seed = chainSeed(r)
	return []request{q}
}

// Mixed-open traffic: the shares of hot-set repeats and of each fresh
// kind, the delay before a request may be repeated, and the /maximize
// seed budget.
const (
	mixedPattern     = "cihcmicihm"
	mixedRepeatAfter = 2 * time.Second
	mixedHotSet      = 512
	maximizeK        = 10
	maximizeSamples  = 16
)

// mixedSchedule draws rate×dur arrivals at uniform random times over dur
// — a Poisson process conditioned on its count, so every run of a given
// length sends the same number of requests. Kinds follow mixedPattern:
// c is /community, i is /impact, m is /maximize (16 chain samples, a
// quarter of the server's default, so one selection holds a 4096-set
// pool), and h repeats a request due at least mixedRepeatAfter earlier,
// drawn from the first mixedHotSet fresh requests, so the cache answers
// it; before any is old enough, h sends a fresh /community or /impact.
// /community and /impact share one chain seed per kind, so arrivals that
// meet within the batching window coalesce.
func mixedSchedule(g *gen, rate float64, dur time.Duration) []request {
	r := g.stream(4, 0)
	n := g.m.NumNodes()
	commSeed, impSeed := chainSeed(r), chainSeed(r)
	times := make([]time.Duration, int(rate*dur.Seconds()))
	for i := range times {
		times[i] = time.Duration(r.Float64() * float64(dur))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	used := make(map[string]bool)
	out := make([]request, 0, len(times))
	var fresh []int
	for idx, t := range times {
		kind := mixedPattern[idx%len(mixedPattern)]
		if kind == 'h' {
			eligible := 0
			for _, j := range fresh {
				if out[j].due <= t-mixedRepeatAfter {
					eligible++
				}
			}
			if eligible > 0 {
				q := out[fresh[r.Intn(eligible)]]
				q.repeat, q.due, q.group = q.group, t, idx
				out = append(out, q)
				continue
			}
			kind = "ci"[idx%2]
		}
		q := request{repeat: -1, due: t, group: idx}
		for {
			switch kind {
			case 'c':
				q.kind, q.samples, q.seed = kindCommunity, g.samples, commSeed
				q.source = graph.NodeID(r.Intn(n))
			case 'i':
				q.kind, q.samples, q.seed = kindImpact, g.samples, impSeed
				a, b := drawPair(r, n)
				q.sources = []graph.NodeID{min(a, b), max(a, b)}
			case 'm':
				q.kind, q.k, q.samples, q.seed = kindMaximize, maximizeK, maximizeSamples, chainSeed(r)
			}
			if key := q.path(); !used[key] {
				used[key] = true
				break
			}
		}
		if len(fresh) < mixedHotSet {
			fresh = append(fresh, idx)
		}
		out = append(out, q)
	}
	return out
}
