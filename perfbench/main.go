// Command perfbench is the repository's benchmark. It builds the §IV-C
// model (graph.Random with 6000 nodes and 14000 edges, p ~ U(0,1)),
// starts flowserve in-process, drives one workload
// through Server.Handler().ServeHTTP for a fixed time, checks every
// answer, and prints one JSON line of metrics.
//
//	perfbench --workload flow-solo --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it
// runs the workload twice, untraced and then traced against a fresh
// server, replays every traced request through the library to split its
// time by layer, and prints the per-layer metrics. DESIGN.md describes
// the workloads and which end-to-end metric each layer metric moves.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"infoflow/internal/core"
	"infoflow/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// The §IV-C model size, and the set-ups a run times for setup_s.
const (
	modelNodes  = 6000
	modelEdges  = 14000
	setupRounds = 15
)

// options are one run's settings. The command line sets the first four
// and state; run fills the rest with the constants above and the build's
// identity, which the self-tests replace to run small.
type options struct {
	workload     string
	seed         uint64
	seconds      float64
	trace        bool
	state        string // directory for answer digests and traces
	nodes, edges int
	setups       int         // set-ups timed for setup_s
	build        string      // identifies the program; keys the answer digests
	clock        serve.Clock // nil: the wall clock
}

// errRefused marks a run whose work differed from its workload's.
var errRefused = errors.New("run refused")

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{nodes: modelNodes, edges: modelEdges, setups: setupRounds}
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 for the traced per-layer run")
	fs.StringVar(&o.state, "state", filepath.Join(".bench_build", "perfbench"), "directory for answer digests and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag == 1
	if _, ok := specByName(o.workload); !ok || o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s) and --seconds > 0\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	var err error
	if o.build, err = buildID(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return report(o, stdout, stderr)
}

// buildID hashes the running executable, so that answer digests are
// compared only between runs of the same build. The file is streamed,
// so its size does not show in peak_rss_mb.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", fmt.Errorf("identifying the build: %w", err)
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", fmt.Errorf("identifying the build: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("identifying the build: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

// report runs the benchmark and prints its result as the last line of
// stdout; it returns the exit code.
func report(o options, stdout, stderr io.Writer) int {
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	res, err := bench(o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		if errors.Is(err, errRefused) {
			return 3
		}
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return names
}

// setUp is cold start to first answer: it builds the model, starts a
// server on it and sends the warm-up (one request, or one full burst
// where only a full batch flushes), returning when the first warm-up
// answer arrives. It waits for every warm-up answer before returning.
func setUp(o options, sp spec, clock serve.Clock, round int) (*serve.Server, *core.ICM, time.Duration, error) {
	t0 := time.Now()
	m := buildModel(o.nodes, o.edges)
	srv, err := serve.NewServer(serve.Config{
		Models: []serve.Model{{Name: "bench", ICM: m}},
		Window: sp.window,
		Clock:  clock,
	})
	if err != nil {
		return nil, nil, 0, fmt.Errorf("starting server: %w", err)
	}
	// Warm-up bursts are numbered past any measured burst.
	warm := nextFlowBurst(&gen{m: m, seed: o.seed, samples: 1}, 1<<24+round)
	if sp.drive != driveBurst {
		warm = warm[:1]
	}
	outs := make(chan outcome, len(warm))
	for i := range warm {
		go func() { outs <- serveOne(srv.Handler(), &warm[i], o.nodes) }()
	}
	var first time.Time
	for range warm {
		w := <-outs
		if w.err != nil {
			err = fmt.Errorf("warm-up request: %w", w.err)
		}
		if first.IsZero() || w.end.Before(first) {
			first = w.end
		}
	}
	return srv, m, first.Sub(t0), err
}

// setUpRepeated times o.setups set-ups and returns the last server and
// the median set-up time; the other servers are drained.
func setUpRepeated(o options, sp spec) (*serve.Server, *core.ICM, float64, error) {
	times := make([]float64, o.setups)
	var srv *serve.Server
	var m *core.ICM
	for i := range times {
		if srv != nil {
			srv.Drain()
		}
		var d time.Duration
		var err error
		if srv, m, d, err = setUp(o, sp, o.clock, i); err != nil {
			return nil, nil, 0, err
		}
		times[i] = d.Seconds()
	}
	return srv, m, median(times), nil
}

func bench(o options, stderr io.Writer) (*result, error) {
	sp, _ := specByName(o.workload)
	dur := time.Duration(o.seconds * float64(time.Second))
	steal0, ticks0 := cpuTicks()
	ref0 := refLoopMS()

	srv, m, setupS, err := setUpRepeated(o, sp)
	if err != nil {
		return nil, err
	}
	g := &gen{m: m, seed: o.seed, samples: sp.samples}
	p := drive(sp, g, srv.Handler(), srv.Metrics(), dur, o.trace, nil)
	srv.Drain()
	if err := settle(o, sp, p, "untraced", stderr); err != nil {
		return nil, err
	}
	res := &result{Attempted: len(p.recs), Metrics: map[string]metric{}}

	if !o.trace {
		// Spot-check the first fresh request of each kind (the first
		// burst, in flow-burst) against the library.
		checked := map[string]bool{}
		for i := range p.reqs {
			q := &p.reqs[i]
			if q.repeat >= 0 || checked[q.kind] || p.recs[i].failed {
				continue
			}
			checked[q.kind] = true
			if err := replayGroup(m, p, i, false); err != nil {
				return nil, err
			}
		}
		res.Correct, res.Failed = tally(p)
		e2e(res, p, setupS)
		return res, nil
	}

	// Traced: the same request list again on a fresh server whose clock
	// records every batching window, and every request replayed. A closed
	// loop replays each request or burst as soon as it is answered, so
	// the host has no time to drift between serving and replaying; the
	// open loop replays after the phase.
	tc := &tracingClock{}
	srv, _, _, err = setUp(o, sp, tc, o.setups)
	if err != nil {
		return nil, err
	}
	var replayErr error
	pt := drive(sp, g, srv.Handler(), srv.Metrics(), dur, true, func(p *phase, i int) {
		if replayErr == nil && !p.recs[i].failed {
			replayErr = replayGroup(m, p, i, true)
		}
	})
	windows := tc.fired()
	if replayErr != nil {
		srv.Drain()
		return nil, replayErr
	}
	handler, err := handlerCost(srv, pt)
	srv.Drain()
	if err != nil {
		return nil, err
	}
	if err := settle(o, sp, pt, "traced", stderr); err != nil {
		return nil, err
	}
	for i := range pt.reqs {
		if pt.outs[i].replay == nil && pt.outs[i].err == nil && !pt.outs[i].resp.Cached {
			if err := replayGroup(m, pt, i, true); err != nil {
				return nil, err
			}
		}
	}
	tr := &traced{p: pt, windows: windows, handler: handler}
	steal1, ticks1 := cpuTicks()
	ref1 := refLoopMS()
	okA, failA := tally(p)
	okB, failB := tally(pt)
	res.Correct, res.Attempted, res.Failed = okA && okB, len(p.recs)+len(pt.recs), failA+failB
	tr.layers(res, sp, p)
	res.Metrics["host.ref_ms"] = metric{(ref0 + ref1) / 2, "ms"}
	res.Metrics["host.steal_share"] = metric{stealShare(steal0, ticks0, steal1, ticks1), "share"}
	if rem := res.Metrics["trace.remainder_share"].Value; rem > 0.1 && (sp.drive != driveOpen) {
		fmt.Fprintf(stderr, "perfbench: layer self times leave %.1f%% of the served time unexplained\n", 100*rem)
	}
	if err := writeSpans(o, tr); err != nil {
		return nil, err
	}
	return res, nil
}

// settle checks a finished phase: every answer, the work-identity guard,
// and the answer digest shared by runs of the same seed.
func settle(o options, sp spec, p *phase, name string, stderr io.Writer) error {
	checkRepeats(p)
	if err := guard(sp, p); err != nil {
		return fmt.Errorf("%w: %s phase: %v", errRefused, name, err)
	}
	err := compareDigest(o, sp, p)
	if p.firstErr != nil {
		fmt.Fprintf(stderr, "perfbench: %s phase: %v\n", name, p.firstErr)
	}
	return err
}

// replayGroup replays the request at i with the rest of its burst (or
// alone) and marks every answer that differs from the library's.
func replayGroup(m *core.ICM, p *phase, i int, full bool) error {
	lo, hi := i, i+1
	for lo > 0 && p.reqs[lo-1].group == p.reqs[i].group {
		lo--
	}
	for hi < len(p.reqs) && p.reqs[hi].group == p.reqs[i].group {
		hi++
	}
	rep, err := replayRequests(m, p.reqs[lo:hi], full)
	if err != nil {
		return err
	}
	for j := lo; j < hi; j++ {
		o := &p.outs[j]
		switch {
		case o.err != nil:
			continue
		case o.answer != rep.answers[j-lo]:
			p.fail(j, fmt.Errorf("served answer %016x differs from the library batch's %016x", o.answer, rep.answers[j-lo]))
		case j == lo && rep.scalar != 0 && o.answer != rep.scalar:
			p.fail(j, fmt.Errorf("served answer %016x differs from the per-pair library answer %016x", o.answer, rep.scalar))
		case full && rep.est.samples > 0 && o.resp.Acceptance != rep.acceptance:
			p.fail(j, fmt.Errorf("served acceptance %v differs from the library chain's %v", o.resp.Acceptance, rep.acceptance))
		}
		o.replay = rep
	}
	return nil
}

// tally reports whether no answer was wrong, and how many requests
// failed: wrong, refused or timed out.
func tally(p *phase) (bool, int) {
	correct, failed := true, 0
	for _, r := range p.recs {
		if r.failed {
			failed++
			correct = correct && declined(r.status)
		}
	}
	return correct, failed
}

// e2e fills the end-to-end metrics of an untraced phase.
func e2e(res *result, p *phase, setupS float64) {
	lat := latencies(p)
	ok := len(p.recs) - res.Failed
	res.Metrics["latency_p50_ms"] = metric{quantile(lat, 0.5), "ms"}
	res.Metrics["latency_p90_ms"] = metric{quantile(lat, 0.9), "ms"}
	res.Metrics["answered_per_s"] = metric{float64(ok) / p.end.Sub(p.start).Seconds(), "1/s"}
	res.Metrics["answered_share"] = metric{float64(ok) / float64(len(p.recs)), "share"}
	res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MiB"}
	res.Metrics["setup_s"] = metric{setupS, "s"}
}

// latencies are the phase's request latencies in ms, in request order,
// in the phase's scratch. A failed request misses any limit: it counts
// as late as the whole phase.
func latencies(p *phase) []float64 {
	lat := p.lat[:len(p.recs)]
	for i, r := range p.recs {
		lat[i] = ms(p.end.Sub(p.start))
		if !r.failed {
			lat[i] = float64(r.latency)
		}
	}
	return lat
}

// quantile is the nearest-rank q-quantile of xs. It sorts xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(i, 0)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// compareDigest checks the phase's answers against those earlier runs of
// the same build, workload and seed recorded in the state directory, and
// records the longer list, one hex hash a line, "-" for no answer.
// Request i of a seed is the same in every run (an open loop's schedule
// also depends on its duration), so answer i must be too. Both files are
// streamed, so the check takes the same memory however many requests
// the phase answered.
func compareDigest(o options, sp spec, p *phase) error {
	key := fmt.Sprintf("%s-%d", sp.name, o.seed)
	if sp.drive == driveOpen {
		key += fmt.Sprintf("-%gs", o.seconds)
	}
	path := filepath.Join(o.state, "answers", o.build, key+".txt")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("recording answer digests: %w", err)
	}
	old := bufio.NewScanner(strings.NewReader(""))
	if f, err := os.Open(path); err == nil {
		defer f.Close()
		old = bufio.NewScanner(f)
	}
	out, err := os.Create(path + ".new")
	if err != nil {
		return fmt.Errorf("recording answer digests: %w", err)
	}
	w := bufio.NewWriter(out)
	for i := 0; ; i++ {
		was := "-"
		more := old.Scan()
		if more {
			was = old.Text()
		} else if i >= len(p.recs) {
			break
		}
		cur := "-"
		if i < len(p.recs) && !p.recs[i].failed {
			cur = fmt.Sprintf("%016x", p.recs[i].answer)
		}
		if was != "-" && cur != "-" && was != cur {
			p.fail(i, fmt.Errorf("answer digest %s differs from %s recorded by an earlier run of this seed", cur, was))
		}
		if was == "-" {
			was = cur
		}
		fmt.Fprintln(w, was)
	}
	if err := errors.Join(old.Err(), w.Flush(), out.Close()); err != nil {
		return fmt.Errorf("recording answer digests: %w", err)
	}
	if err := os.Rename(path+".new", path); err != nil {
		return fmt.Errorf("recording answer digests: %w", err)
	}
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
