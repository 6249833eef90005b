package main

import (
	"fmt"
	"time"

	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/influence"
	"infoflow/internal/mh"
	"infoflow/internal/rng"
	"infoflow/internal/sizedist"
)

// timing splits one library run into burn-in and sampling. Burn-in runs
// from the call (sampler construction included) to the last
// Options.Interrupt poll of burn-in; sampling runs from there to return.
type timing struct {
	start         time.Time
	burnin, total time.Duration
	samples       int
}

func (t timing) perSample() time.Duration {
	if t.samples == 0 {
		return 0
	}
	return (t.total - t.burnin) / time.Duration(t.samples)
}

// timed returns opts with an Interrupt hook that timestamps the end of
// burn-in, and a stop function to call when the run returns. The hook
// consumes no randomness, so the run's answer is unchanged.
func timed(opts mh.Options) (mh.Options, func() timing) {
	burnPolls := (opts.BurnIn + opts.Thin - 1) / opts.Thin
	polls := 0
	start := time.Now()
	burnEnd := start
	opts.Interrupt = func() bool {
		if polls++; polls == burnPolls {
			burnEnd = time.Now()
		}
		return false
	}
	return opts, func() timing {
		return timing{start: start, burnin: burnEnd.Sub(start), total: time.Since(start), samples: opts.Samples}
	}
}

// replay is one request, or one burst, recomputed through the library
// with each layer timed.
type replay struct {
	answers []uint64 // hashes of the served estimator's canonical answers, one per request
	// scalar hashes the first request's answer from the per-pair entry point
	// (FlowProb, CommunityFlowProbs, ImpactDistribution), 0 where there is
	// none; the serve determinism contract makes it equal to answers[0].
	scalar uint64
	est    timing // the batch estimator the server runs
	// chain is the same chain with a no-op visit: chain steps alone.
	// uncond is that chain without the request's conditions. Both are
	// set only by a full replay.
	chain, uncond timing
	steps         int64
	acceptance    float64
	// Layers outside the chain: /impact's analytic attempt and the two
	// halves of /maximize.
	sizedist, rrpool, selection timing
}

// estimate is the layer time the server spent computing the answer.
func (r *replay) estimate() time.Duration {
	return r.est.total + r.sizedist.total + r.rrpool.total + r.selection.total
}

// since is an interval with no burn-in, from t0 to now.
func since(t0 time.Time) timing { return timing{start: t0, total: time.Since(t0)} }

func chainOpts(m *core.ICM, samples int) mh.Options {
	opts := mh.DefaultOptions(m.NumEdges())
	opts.Samples = samples
	return opts
}

// replayRequests recomputes qs — one request, or one burst of /flow
// requests on one seed — through the library. A batched kind is timed on
// the batch estimator the server runs (FlowProbBatch,
// CommunityFlowProbsBatch, ImpactDistributionBatch) and its first answer
// is recomputed by the per-pair entry point; /maximize runs BuildRRPool
// and SketchGreedy. A full replay also times the chain alone.
func replayRequests(m *core.ICM, qs []request, full bool) (*replay, error) {
	q := &qs[0]
	opts := chainOpts(m, q.samples)
	seed := func() *rng.RNG { return rng.New(q.seed) }
	rep := &replay{}
	var err error
	switch q.kind {
	case kindFlow:
		pairs := make([]mh.FlowPair, len(qs))
		for i := range qs {
			pairs[i] = mh.FlowPair{Source: qs[i].source, Sink: qs[i].sink}
		}
		o, stop := timed(opts)
		probs, err := mh.FlowProbBatch(m, pairs, q.conds, o, seed())
		if err != nil {
			return nil, fmt.Errorf("replaying flow batch: %w", err)
		}
		rep.est = stop()
		for _, p := range probs {
			rep.answers = append(rep.answers, answerHash(canonFlow(p)))
		}
		p, err := mh.FlowProb(m, q.source, q.sink, q.conds, opts, seed())
		if err != nil {
			return nil, fmt.Errorf("replaying flow: %w", err)
		}
		rep.scalar = answerHash(canonFlow(p))
	case kindCommunity:
		o, stop := timed(opts)
		vecs, err := mh.CommunityFlowProbsBatch(m, []graph.NodeID{q.source}, q.conds, o, seed())
		if err != nil {
			return nil, fmt.Errorf("replaying community batch: %w", err)
		}
		rep.est = stop()
		rep.answers = []uint64{answerHash(canonCommunity(topFlows(vecs[0], q.source)))}
		vec, err := mh.CommunityFlowProbs(m, q.source, q.conds, opts, seed())
		if err != nil {
			return nil, fmt.Errorf("replaying community: %w", err)
		}
		rep.scalar = answerHash(canonCommunity(topFlows(vec, q.source)))
	case kindImpact:
		t0 := time.Now()
		res, err := sizedist.Compute(m, q.sources, sizedist.DefaultOptions())
		rep.sizedist = since(t0)
		if err == nil && res.Exact {
			rep.answers = []uint64{answerHash(canonImpact(res.Method.String(), res.Dist))}
			return rep, nil
		}
		length := m.NumNodes() - len(q.sources) + 1
		o, stop := timed(opts)
		impacts, err := mh.ImpactDistributionBatch(m, [][]graph.NodeID{q.sources}, q.conds, o, seed())
		if err != nil {
			return nil, fmt.Errorf("replaying impact batch: %w", err)
		}
		rep.est = stop()
		rep.answers = []uint64{answerHash(canonImpact("mh-sampled", impactHist(impacts[0], length)))}
		samples, err := mh.ImpactDistribution(m, q.sources, q.conds, opts, seed())
		if err != nil {
			return nil, fmt.Errorf("replaying impact: %w", err)
		}
		rep.scalar = answerHash(canonImpact("mh-sampled", impactHist(samples, length)))
	case kindMaximize:
		t0 := time.Now()
		pool, err := mh.BuildRRPool(m, nil, q.conds, mh.DefaultRootsPerSample, 0, opts, seed())
		if err != nil {
			return nil, fmt.Errorf("replaying maximize pool: %w", err)
		}
		t1 := time.Now()
		res, err := influence.SketchGreedy(pool, q.k, nil)
		if err != nil {
			return nil, fmt.Errorf("replaying maximize selection: %w", err)
		}
		rep.rrpool, rep.selection = timing{start: t0, total: t1.Sub(t0)}, since(t1)
		seeds := make([]int, len(res.Seeds))
		for i, v := range res.Seeds {
			seeds[i] = int(v)
		}
		rep.answers = []uint64{answerHash(canonMaximize(seeds, res.MarginalGains, res.SpreadEstimate))}
		return rep, nil
	}
	if !full {
		return rep, nil
	}
	if rep.chain, rep.steps, rep.acceptance, err = chainOnly(m, q.conds, opts, q.seed); err != nil {
		return nil, err
	}
	if len(q.conds) > 0 {
		if rep.uncond, _, _, err = chainOnly(m, nil, opts, q.seed); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// chainOnly runs the chain an estimator on seed would run, with a no-op
// visit: its randomness does not depend on the lanes, so this is the
// same chain the server ran, without the sweeps.
func chainOnly(m *core.ICM, conds []core.FlowCondition, opts mh.Options, seed uint64) (timing, int64, float64, error) {
	o, stop := timed(opts)
	s, err := mh.NewSampler(m, conds, rng.New(seed))
	if err != nil {
		return timing{}, 0, 0, fmt.Errorf("replaying chain: %w", err)
	}
	if err := s.Run(o, func(core.PseudoState) {}); err != nil {
		return timing{}, 0, 0, fmt.Errorf("replaying chain: %w", err)
	}
	return stop(), s.Steps(), s.PostBurnInAcceptanceRate(), nil
}
