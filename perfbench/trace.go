package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"infoflow/internal/serve"
)

// tracingClock is the wall clock with every batching window recorded:
// each After call and the moment its timer fires.
type tracingClock struct {
	mu      sync.Mutex
	windows []window
}

type window struct{ call, fire time.Time }

func (c *tracingClock) Now() time.Time { return time.Now() }

func (c *tracingClock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	call := time.Now()
	time.AfterFunc(d, func() {
		fire := time.Now()
		c.mu.Lock()
		c.windows = append(c.windows, window{call, fire})
		c.mu.Unlock()
		ch <- fire
	})
	return ch
}

// fired returns the windows whose timers have fired.
func (c *tracingClock) fired() []window {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]window(nil), c.windows...)
}

// handlerCost re-sends up to 200 of the phase's last answered requests,
// which the cache now holds, and returns the median time the handler
// takes around a cache hit: parse, cache lookup and encode. /impact is
// left out, since a repeat of a sampled /impact retries the analytic
// engine first.
func handlerCost(srv *serve.Server, p *phase) (time.Duration, error) {
	var times []float64
	for i := len(p.reqs) - 1; i >= 0 && len(times) < 200; i-- {
		if p.reqs[i].kind == kindImpact || p.outs[i].err != nil {
			continue
		}
		q := p.reqs[i]
		q.repeat = i
		o := serveOne(srv.Handler(), &q, p.n)
		if o.err != nil || !o.resp.Cached || o.answer != p.outs[i].answer {
			return 0, fmt.Errorf("re-sent request %d was not answered the same from the cache (cached %v): %v", i, o.resp.Cached, o.err)
		}
		times = append(times, float64(o.end.Sub(o.start)))
	}
	if len(times) == 0 {
		return 0, nil
	}
	return time.Duration(median(times)), nil
}

// traced is the traced phase with its windows and replays.
type traced struct {
	p       *phase
	windows []window
	handler time.Duration
}

// windowWait is the batching-window wait of request i: in a burst, from
// the burst's start to its last request's start, when the full batch
// flushes; elsewhere the median fired window. /maximize and analytic
// /impact answers wait for none.
func (t *traced) windowWait(i int, burstFill map[int]time.Duration, fired float64) float64 {
	q, rep := &t.p.reqs[i], t.p.outs[i].replay
	switch {
	case rep == nil || rep.est.samples == 0:
		return 0
	case len(burstFill) > 0:
		return ms(burstFill[q.group])
	}
	return fired
}

// layers computes the per-layer metrics of the traced phase; untraced is
// the untraced phase of the same request list. A layer the workload
// does not reach reads 0.
func (t *traced) layers(res *result, sp spec, untraced *phase) {
	p := t.p
	burstFill := map[int]time.Duration{}
	if sp.drive == driveBurst {
		for i := range p.outs {
			o := &p.outs[i]
			if d := o.start.Sub(o.due); d > burstFill[p.reqs[i].group] {
				burstFill[p.reqs[i].group] = d
			}
		}
	}
	var waits []float64
	for _, w := range t.windows {
		waits = append(waits, ms(w.fire.Sub(w.call)))
	}
	fired := median(waits)

	var served, explained float64
	var windowWaits, overheads []float64
	var burnin, chain, sweep, steps, acc, cond, sd, rr, sel []float64
	seen := map[*replay]bool{}
	for i := range p.outs {
		o := &p.outs[i]
		rep := o.replay
		if rep == nil || o.err != nil {
			continue
		}
		w := t.windowWait(i, burstFill, fired)
		lat := ms(o.latency())
		served += lat
		explained += w + ms(t.handler) + ms(rep.estimate())
		overheads = append(overheads, lat-ms(rep.estimate()))
		if rep.est.samples > 0 {
			windowWaits = append(windowWaits, w)
		}
		if seen[rep] {
			continue
		}
		seen[rep] = true
		if rep.chain.samples > 0 {
			burnin = append(burnin, ms(rep.chain.burnin))
			chain = append(chain, ms(rep.chain.perSample()))
			sweep = append(sweep, ms(rep.est.perSample()-rep.chain.perSample()))
			steps = append(steps, float64(rep.steps))
			acc = append(acc, rep.acceptance)
		}
		if rep.uncond.samples > 0 {
			cond = append(cond, ms(rep.chain.perSample()-rep.uncond.perSample()))
		}
		if p.reqs[i].kind == kindImpact {
			sd = append(sd, ms(rep.sizedist.total))
		}
		if p.reqs[i].kind == kindMaximize {
			rr = append(rr, ms(rep.rrpool.total))
			sel = append(sel, ms(rep.selection.total))
		}
	}
	d := p.delta
	batches := float64(max(d.batches, 1))
	// The traced phase replays as it goes, so it reaches fewer requests:
	// compare the same prefix of the request list.
	untracedP50 := quantile(latencies(untraced)[:min(len(untraced.recs), len(p.recs))], 0.5)
	remainder := 0.0
	if served > 0 {
		remainder = (served - explained) / served
		if remainder < 0 {
			remainder = -remainder
		}
	}
	for name, m := range map[string]metric{
		"serve.window_wait_ms":      {median(windowWaits), "ms"},
		"serve.overhead_ms":         {median(overheads), "ms"},
		"serve.requests_per_batch":  {float64(d.batched) / batches, "count"},
		"serve.lanes_per_batch":     {float64(d.lanes) / batches, "count"},
		"serve.cache_hit_share":     {float64(d.hits) / float64(max(d.hits+d.misses, 1)), "share"},
		"serve.refused":             {float64(d.rejected), "count"},
		"mh.burnin_ms":              {median(burnin), "ms"},
		"mh.chain_ms_per_sample":    {median(chain), "ms"},
		"mh.steps":                  {median(steps), "count"},
		"mh.acceptance":             {median(acc), "share"},
		"core.cond_ms_per_sample":   {mean(cond), "ms"},
		"graph.sweep_ms_per_sample": {median(sweep), "ms"},
		"graph.sweeps":              {float64(d.sweeps) / batches, "count"},
		"sizedist.compute_ms":       {median(sd), "ms"},
		"mh.rrpool_ms":              {median(rr), "ms"},
		"influence.select_ms":       {median(sel), "ms"},
		"load.late_ms_p90":          {quantile(lateness(untraced, sp.drive == driveOpen), 0.9), "ms"},
		"trace.overhead_share":      {(quantile(latencies(p), 0.5) - untracedP50) / untracedP50, "share"},
		"trace.remainder_share":     {remainder, "share"},
	} {
		res.Metrics[name] = m
	}
}

// lateness is how late the client sent each request: after its due time
// in an open loop; after the previous request or burst finished in a
// closed one.
func lateness(p *phase, open bool) []float64 {
	var out []float64
	var groupEnd time.Time
	for i := range p.outs {
		o := &p.outs[i]
		switch {
		case open:
			out = append(out, ms(o.start.Sub(o.due)))
		case i > 0 && p.reqs[i].group != p.reqs[i-1].group:
			out = append(out, ms(o.due.Sub(groupEnd)))
			groupEnd = time.Time{}
		}
		if o.end.After(groupEnd) {
			groupEnd = o.end
		}
	}
	return out
}

// span is one recorded interval: a served request, a batching window, or
// a layer of a replay. Spans of one request share req; a layer's parent
// is the span it is part of.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_us"`
	End    int64  `json:"end_us"`
}

// writeSpans writes the traced phase's spans, one JSON object a line, to
// the state directory. Times are microseconds from the phase's start.
func writeSpans(o options, t *traced) error {
	path := filepath.Join(o.state, fmt.Sprintf("trace-%s-%d.jsonl", o.workload, o.seed))
	if err := os.MkdirAll(o.state, 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	base := t.p.start
	id := 0
	add := func(parent, req int, name string, start, end time.Time) int {
		id++
		enc.Encode(span{ID: id, Parent: parent, Req: req, Name: name,
			Start: start.Sub(base).Microseconds(), End: end.Sub(base).Microseconds()})
		return id
	}
	addTiming := func(parent, req int, name string, tm timing) {
		if tm.total == 0 {
			return
		}
		s := add(parent, req, name, tm.start, tm.start.Add(tm.total))
		if tm.burnin > 0 {
			add(s, req, "mh.burnin", tm.start, tm.start.Add(tm.burnin))
			add(s, req, "mh.samples", tm.start.Add(tm.burnin), tm.start.Add(tm.total))
		}
	}
	for _, win := range t.windows {
		add(0, -1, "serve.window", win.call, win.fire)
	}
	seen := map[*replay]bool{}
	for i := range t.p.outs {
		out := &t.p.outs[i]
		add(0, i, "/"+t.p.reqs[i].kind, out.due, out.end)
		rep := out.replay
		if rep == nil || seen[rep] {
			continue
		}
		seen[rep] = true
		addTiming(0, i, "replay.estimator", rep.est)
		addTiming(0, i, "replay.chain", rep.chain)
		addTiming(0, i, "replay.chain_uncond", rep.uncond)
		addTiming(0, i, "sizedist.compute", rep.sizedist)
		addTiming(0, i, "mh.rrpool", rep.rrpool)
		addTiming(0, i, "influence.select", rep.selection)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
