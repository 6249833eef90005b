package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/serve"
)

// outcome is one sent request as the client saw it.
type outcome struct {
	due, start, end time.Time
	status          int
	resp            served
	answer          uint64 // hash of the canonical answer; 0 when the response fails its check
	err             error  // why the answer does not count
	replay          *replay
}

func (o *outcome) latency() time.Duration { return o.end.Sub(o.due) }

// declined reports a status of a request the server refused (503) or
// let time out (504): a missing answer, not a wrong one.
func declined(status uint16) bool {
	return status == http.StatusServiceUnavailable || status == http.StatusGatewayTimeout
}

// record is what a phase keeps of every request: all that the
// end-to-end metrics and the answer digest need.
type record struct {
	answer  uint64  // the outcome's answer hash
	latency float32 // ms, from due to end
	status  uint16
	failed  bool // the answer does not count
}

// maxRecords bounds the requests of one phase. A phase allocates and
// touches its records and its latency scratch up front, and the answer
// digest is streamed, so the client's memory, and with it peak_rss_mb,
// does not grow with the number of requests answered. Closed loops stop
// sending when the next request or burst would not fit; flow-burst sends
// about 45 000 requests in 20 seconds.
const maxRecords = 1 << 18

// keepPrefix is how many requests an untraced closed loop keeps whole,
// for the replay spot-check: the groups that start before it.
const keepPrefix = 512

// response is the union of the JSON bodies the four endpoints return.
type response struct {
	Source         int       `json:"source"`
	Sink           int       `json:"sink"`
	Cond           string    `json:"cond"`
	Prob           float64   `json:"prob"`
	Samples        int       `json:"samples"`
	Seed           uint64    `json:"seed"`
	Cached         bool      `json:"cached"`
	BatchSize      int       `json:"batch_size"`
	Lanes          int       `json:"lanes"`
	Acceptance     float64   `json:"acceptance_rate"`
	Top            []entry   `json:"top"`
	Sources        []int     `json:"sources"`
	Method         string    `json:"method"`
	Dist           []float64 `json:"dist"`
	K              int       `json:"k"`
	Seeds          []int     `json:"seeds"`
	MarginalGains  []float64 `json:"marginal_gains"`
	SpreadEstimate float64   `json:"spread_estimate"`
}

// served is what the client keeps of a response besides the answer's
// hash.
type served struct {
	Cached     bool
	Sampled    bool // an /impact answer from the chain, not the analytic engine
	BatchSize  int
	Lanes      int
	Acceptance float64
}

type entry struct {
	Node int     `json:"node"`
	Prob float64 `json:"prob"`
}

// counters is the part of serve.Metrics a run asserts on.
type counters struct {
	batches, lanes, batched, hits, misses, rejected, errors int64
	// sweeps are lane-engine sweeps: replays, repairs and rebuilds.
	sweeps int64
}

func readCounters(m *serve.Metrics) counters {
	return counters{
		batches: m.Batches.Load(), lanes: m.BatchedLanes.Load(), batched: m.BatchedRequests.Load(),
		hits: m.CacheHits.Load(), misses: m.CacheMisses.Load(),
		rejected: m.Rejected.Load(), errors: m.Errors.Load(),
		sweeps: m.LaneReplays.Load() + m.LaneRepairs.Load() + m.LaneRebuilds.Load(),
	}
}

func (c counters) sub(o counters) counters {
	return counters{c.batches - o.batches, c.lanes - o.lanes, c.batched - o.batched,
		c.hits - o.hits, c.misses - o.misses, c.rejected - o.rejected,
		c.errors - o.errors, c.sweeps - o.sweeps}
}

// serveOne sends q through the handler in-process, records when it
// started and ended, and then checks the answer.
func serveOne(h http.Handler, q *request, n int) outcome {
	req := httptest.NewRequest(http.MethodGet, q.path(), nil)
	rec := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(rec, req)
	o := outcome{start: start, end: time.Now(), status: rec.Code}
	var canon string
	var r response
	if canon, o.err = checkAnswer(q, o.status, rec.Body.Bytes(), &r, n); o.err == nil {
		o.answer = answerHash(canon)
	}
	o.resp = served{Cached: r.Cached, Sampled: r.Method == "mh-sampled",
		BatchSize: r.BatchSize, Lanes: r.Lanes, Acceptance: r.Acceptance}
	return o
}

// phase is one measured pass of a workload against one server.
type phase struct {
	recs []record  // every request sent, in order
	lat  []float64 // scratch for latencies, maxRecords long
	// reqs and outs are requests and outcomes kept whole: all of them
	// when keepAll, else the groups that start before keepPrefix. They
	// are a prefix of recs: reqs[i] is request i.
	reqs     []request
	outs     []outcome
	keepAll  bool
	shapeErr error // the first answer whose batch shape differs from the workload's
	firstErr error // the first reason an answer does not count
	start    time.Time
	end      time.Time
	delta    counters
	n        int // model nodes
}

func newPhase(n int, keepAll bool) *phase {
	recs, lat := make([]record, maxRecords), make([]float64, maxRecords)
	for i := range recs {
		recs[i].status, lat[i] = 1, 1 // touch every page now
	}
	return &phase{recs: recs[:0], lat: lat, keepAll: keepAll, n: n}
}

// room reports whether k more requests fit in the phase.
func (p *phase) room(k int) bool { return len(p.recs)+k <= maxRecords }

// add appends a finished group of requests. In a closed loop, every
// answer must report a batch of want requests and want lanes.
func (p *phase) add(qs []request, outs []outcome, want int) {
	first := len(p.recs)
	for i := range outs {
		o := &outs[i]
		p.recs = append(p.recs, record{answer: o.answer, latency: float32(ms(o.latency())),
			status: uint16(o.status), failed: o.err != nil})
		if o.err != nil && p.firstErr == nil {
			p.firstErr = fmt.Errorf("request %d (%s): %w", first+i, qs[i].path(), o.err)
		}
		if r := o.resp; want > 0 && p.shapeErr == nil && o.status == http.StatusOK && (r.BatchSize != want || r.Lanes != want) {
			p.shapeErr = fmt.Errorf("request %d rode a batch of %d requests and %d lanes, want %d", first+i, r.BatchSize, r.Lanes, want)
		}
	}
	if p.keepAll || (len(p.reqs) == first && first < keepPrefix) {
		p.reqs, p.outs = append(p.reqs, qs...), append(p.outs, outs...)
	}
}

// fail marks request i's answer as not counting, unless it already does.
func (p *phase) fail(i int, err error) {
	if p.recs[i].failed {
		return
	}
	p.recs[i].failed = true
	if i < len(p.outs) {
		p.outs[i].err = err
	}
	if p.firstErr == nil {
		p.firstErr = fmt.Errorf("request %d: %w", i, err)
	}
}

// drive sends the workload's requests to h for dur and returns what was
// sent and answered. Solo and burst loops stop starting new work at dur;
// the open loop sends every arrival scheduled before dur. Every request
// sent is waited for. The phase keeps every request whole if keepAll or
// in the open loop, whose request count is fixed by its schedule. In the
// closed loops, a non-nil after runs with the index of each request, or
// the first of each burst, once it is answered and before the next is
// sent, while the server is idle.
func drive(sp spec, g *gen, h http.Handler, metrics *serve.Metrics, dur time.Duration, keepAll bool, after func(p *phase, i int)) *phase {
	n := g.m.NumNodes()
	p := newPhase(n, keepAll || sp.drive == driveOpen)
	before := readCounters(metrics)
	p.start = time.Now()
	switch sp.drive {
	case driveSolo:
		for i := 0; time.Since(p.start) < dur && p.room(1); i++ {
			qs := sp.next(g, i)
			o := serveOne(h, &qs[0], n)
			o.due = o.start
			p.add(qs, []outcome{o}, 1)
			if after != nil {
				after(p, len(p.recs)-1)
			}
		}
	case driveBurst:
		for b := 0; time.Since(p.start) < dur && p.room(sp.burst); b++ {
			qs := sp.next(g, b)
			outs := make([]outcome, len(qs))
			due := time.Now()
			var wg sync.WaitGroup
			wg.Add(len(qs))
			for i := range qs {
				go func() {
					defer wg.Done()
					outs[i] = serveOne(h, &qs[i], n)
					outs[i].due = due
				}()
			}
			wg.Wait()
			p.add(qs, outs, sp.burst)
			if after != nil {
				after(p, len(p.recs)-len(qs))
			}
		}
	case driveOpen:
		reqs := sp.schedule(g, sp.rate, dur)
		outs := make([]outcome, len(reqs))
		var wg sync.WaitGroup
		wg.Add(len(reqs))
		for i := range reqs {
			due := p.start.Add(reqs[i].due)
			time.Sleep(time.Until(due))
			go func() {
				defer wg.Done()
				outs[i] = serveOne(h, &reqs[i], n)
				outs[i].due = due
			}()
		}
		wg.Wait()
		p.add(reqs, outs, 0)
	}
	p.end = time.Now()
	p.delta = readCounters(metrics).sub(before)
	return p
}

// checkRepeats checks each hot-set repeat against its original: the same
// answer, from the cache when the original had finished before the
// repeat was sent.
func checkRepeats(p *phase) {
	for i := range p.outs {
		q, o := &p.reqs[i], &p.outs[i]
		if q.repeat < 0 || o.err != nil {
			continue
		}
		orig := &p.outs[q.repeat]
		switch {
		case orig.err == nil && orig.answer != o.answer:
			p.fail(i, fmt.Errorf("repeat of request %d answered differently", q.repeat))
		case orig.status == http.StatusOK && orig.end.Before(o.start) && !o.resp.Cached:
			p.fail(i, fmt.Errorf("repeat of request %d finished earlier but was not served from the cache", q.repeat))
		}
	}
}

// checkAnswer decodes a response into r and checks it against the
// request; it returns the canonical answer.
func checkAnswer(q *request, status int, body []byte, r *response, n int) (string, error) {
	if status != http.StatusOK {
		return "", fmt.Errorf("status %d: %s", status, strings.TrimSpace(string(body)))
	}
	if err := json.Unmarshal(body, r); err != nil {
		return "", fmt.Errorf("decoding answer: %w", err)
	}
	if q.repeat < 0 && r.Cached {
		return "", errors.New("fresh request answered from the cache")
	}
	// An analytic /impact answer depends on no chain, so it echoes none.
	analytic := q.kind == kindImpact && r.Method != "mh-sampled"
	if !analytic && (r.Seed != q.seed || r.Samples != q.samples) {
		return "", fmt.Errorf("echoed seed/samples %d/%d, sent %d/%d", r.Seed, r.Samples, q.seed, q.samples)
	}
	if q.kind != kindImpact && r.Cond != condsKey(q.conds) {
		return "", fmt.Errorf("echoed cond %q, sent %q", r.Cond, condsKey(q.conds))
	}
	switch q.kind {
	case kindFlow:
		if r.Source != int(q.source) || r.Sink != int(q.sink) {
			return "", fmt.Errorf("echoed pair %d>%d, sent %d>%d", r.Source, r.Sink, q.source, q.sink)
		}
		if !isFraction(r.Prob, q.samples) {
			return "", fmt.Errorf("prob %v is not a count over %d samples", r.Prob, q.samples)
		}
		return canonFlow(r.Prob), nil
	case kindCommunity:
		if r.Source != int(q.source) || len(r.Top) > communityTop {
			return "", fmt.Errorf("echoed source %d with %d entries", r.Source, len(r.Top))
		}
		for i, e := range r.Top {
			if e.Node == int(q.source) || e.Node < 0 || e.Node >= n || e.Prob <= 0 || !isFraction(e.Prob, q.samples) {
				return "", fmt.Errorf("bad community entry %+v", e)
			}
			if i > 0 && !entryBefore(r.Top[i-1], e) {
				return "", fmt.Errorf("community entries out of order at %d", i)
			}
		}
		return canonCommunity(r.Top), nil
	case kindImpact:
		if len(r.Sources) != len(q.sources) {
			return "", fmt.Errorf("echoed sources %v", r.Sources)
		}
		for i, s := range r.Sources {
			if s != int(q.sources[i]) {
				return "", fmt.Errorf("echoed sources %v", r.Sources)
			}
		}
		if len(r.Dist) != n-len(q.sources)+1 {
			return "", fmt.Errorf("impact law has %d entries, want %d", len(r.Dist), n-len(q.sources)+1)
		}
		sum := 0.0
		for _, p := range r.Dist {
			if p < 0 || (!analytic && !isFraction(p, q.samples)) {
				return "", fmt.Errorf("impact probability %v is not a count over %d samples", p, q.samples)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			return "", fmt.Errorf("impact law sums to %v", sum)
		}
		return canonImpact(r.Method, r.Dist), nil
	case kindMaximize:
		if r.K != q.k || len(r.Seeds) != q.k || len(r.MarginalGains) != q.k {
			return "", fmt.Errorf("k=%d answered with %d seeds", q.k, len(r.Seeds))
		}
		seen := make(map[int]bool, q.k)
		total := 0.0
		for i, v := range r.Seeds {
			if v < 0 || v >= n || seen[v] {
				return "", fmt.Errorf("seed set %v is not %d distinct nodes", r.Seeds, q.k)
			}
			seen[v] = true
			total += r.MarginalGains[i]
		}
		// The server's estimate is this same sum in the same order.
		if total != r.SpreadEstimate {
			return "", fmt.Errorf("spread estimate %v is not the sum of gains %v", r.SpreadEstimate, total)
		}
		return canonMaximize(r.Seeds, r.MarginalGains, r.SpreadEstimate), nil
	}
	return "", fmt.Errorf("unknown kind %q", q.kind)
}

// isFraction reports whether p is exactly hits/samples for a whole hits.
func isFraction(p float64, samples int) bool {
	hits := math.Round(p * float64(samples))
	return hits >= 0 && hits <= float64(samples) && hits/float64(samples) == p
}

// communityTop is the server's default ?top=.
const communityTop = 10

// entryBefore is the server's community order: probability descending,
// node ascending.
func entryBefore(a, b entry) bool {
	if a.Prob != b.Prob {
		return a.Prob > b.Prob
	}
	return a.Node < b.Node
}

// topFlows ranks a community vector the way the server does.
func topFlows(probs []float64, source graph.NodeID) []entry {
	var out []entry
	for v, p := range probs {
		if graph.NodeID(v) != source && p > 0 {
			out = append(out, entry{Node: v, Prob: p})
		}
	}
	sort.Slice(out, func(i, j int) bool { return entryBefore(out[i], out[j]) })
	if len(out) > communityTop {
		out = out[:communityTop]
	}
	return out
}

// impactHist folds impact samples into the normalized histogram the
// server returns.
func impactHist(samples []int, length int) []float64 {
	hist := make([]float64, length)
	for _, v := range samples {
		hist[v]++
	}
	for i := range hist {
		hist[i] /= float64(len(samples))
	}
	return hist
}

// condsKey is the server's canonical cond= echo.
func condsKey(conds []core.FlowCondition) string {
	parts := make([]string, len(conds))
	for i, c := range conds {
		req := 0
		if c.Require {
			req = 1
		}
		parts[i] = fmt.Sprintf("%d>%d=%d", c.Source, c.Sink, req)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// Canonical answers: the estimate alone, with every float in its
// shortest exact form, so equal strings mean bit-identical answers.
func canonFlow(p float64) string { return fstr(p) }

func canonCommunity(top []entry) string {
	var b strings.Builder
	for _, e := range top {
		fmt.Fprintf(&b, "%d:%s;", e.Node, fstr(e.Prob))
	}
	return b.String()
}

func canonImpact(method string, dist []float64) string {
	var b strings.Builder
	b.WriteString(method)
	for _, p := range dist {
		b.WriteByte(';')
		b.WriteString(fstr(p))
	}
	return b.String()
}

func canonMaximize(seeds []int, gains []float64, est float64) string {
	var b strings.Builder
	for i, v := range seeds {
		fmt.Fprintf(&b, "%d:%s;", v, fstr(gains[i]))
	}
	b.WriteString(fstr(est))
	return b.String()
}

func fstr(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func answerHash(a string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(a))
	return h.Sum64()
}

// guard checks that the phase did exactly the work its workload implies
// and returns why not. A run that fails it is refused.
func guard(sp spec, p *phase) error {
	d := p.delta
	if d.errors != 0 {
		return fmt.Errorf("%d batches failed outright", d.errors)
	}
	// A refused request (503) never reaches a batch; a timed-out one
	// (504) still rode its batch.
	// Each answer's own batch shape was checked as it arrived.
	if p.shapeErr != nil {
		return p.shapeErr
	}
	n, ran := int64(len(p.recs)), int64(len(p.recs))-d.rejected
	switch sp.drive {
	case driveSolo:
		if d.batches != ran || d.batched != ran || d.lanes != ran || d.hits != 0 {
			return fmt.Errorf("%d solo requests (%d refused) ran %d batches of %d requests and %d lanes with %d cache hits; want one single-lane batch each and no hits",
				n, d.rejected, d.batches, d.batched, d.lanes, d.hits)
		}
	case driveBurst:
		size := int64(sp.burst)
		if n%size != 0 || d.rejected%size != 0 || d.batches != ran/size || d.batched != ran || d.lanes != ran || d.hits != 0 {
			return fmt.Errorf("%d bursts of %d (%d requests refused) ran %d batches of %d requests and %d lanes with %d cache hits; want one full batch per burst",
				n/size, size, d.rejected, d.batches, d.batched, d.lanes, d.hits)
		}
	case driveOpen:
		var batched, sure, maybe int64
		for i := range p.reqs {
			q, o := &p.reqs[i], &p.outs[i]
			if q.repeat >= 0 && p.outs[q.repeat].status == http.StatusOK {
				if p.outs[q.repeat].end.Before(o.start) {
					sure++
				} else {
					maybe++
				}
			}
			// Requests that rode a batch: sampled /community and /impact
			// answers, and timeouts, which only batched kinds can hit.
			sampled := q.kind == kindCommunity || (q.kind == kindImpact && o.resp.Sampled)
			if (o.status == http.StatusOK && !o.resp.Cached && sampled) || o.status == http.StatusGatewayTimeout {
				batched++
			}
		}
		if d.hits+d.misses != n || d.hits < sure || d.hits > sure+maybe || d.batched != batched {
			return fmt.Errorf("%d requests with %d sure and %d possible cache hits made %d hits, %d misses and %d batched requests (want %d)",
				n, sure, maybe, d.hits, d.misses, d.batched, batched)
		}
	}
	return nil
}
