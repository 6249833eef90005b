package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
	"time"
)

// tiny runs a workload for a fraction of a second on a small model.
func tiny(t *testing.T, workload string, trace bool) options {
	return options{workload: workload, seed: 3, seconds: 0.4, trace: trace, state: t.TempDir(),
		nodes: 300, edges: 700, setups: 2, build: "test"}
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (e2e, layers map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		layers[m.Name] = m.Unit
	}
	var names []string
	for _, w := range b.Workload {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Fatalf("BENCHMARK.json workloads %s, program workloads %s", got, want)
	}
	return e2e, layers
}

// TestWorkloadsPrintEveryMetric runs each workload untraced and traced on
// a tiny model and checks that the last line names every declared metric
// with its unit, and nothing else, and that every answer was correct.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	e2e, layers := declared(t)
	for _, w := range workloadNames() {
		for trace, want := range map[bool]map[string]string{false: e2e, true: layers} {
			var out, errOut bytes.Buffer
			if code := report(tiny(t, w, trace), &out, &errOut); code != 0 {
				t.Fatalf("%s trace %v: exit %d: %s", w, trace, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %v: %v", w, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace %v: correct %v, attempted %d, failed %d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %v: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
					t.Errorf("%s trace %v: metric %s = %+v, want unit %s", w, trace, name, m, unit)
				}
			}
		}
	}
}

// earlyClock fires every batching window after 100µs, while a burst's
// requests are still joining, so the burst splits into several batches.
type earlyClock struct{}

func (earlyClock) Now() time.Time { return time.Now() }

func (earlyClock) After(time.Duration) <-chan time.Time { return time.After(100 * time.Microsecond) }

// TestEarlyWindowTripsGuard checks that a burst the window flushes
// before it fills is refused rather than reported.
func TestEarlyWindowTripsGuard(t *testing.T) {
	o := tiny(t, "flow-burst", false)
	o.setups, o.clock = 1, earlyClock{}
	var errOut bytes.Buffer
	if _, err := bench(o, &errOut); !errors.Is(err, errRefused) {
		t.Fatalf("bench with an early window returned %v, want a refused run", err)
	}
}

// TestRequestsDependOnlyOnSeed checks that a workload's request list is
// a function of its seed.
func TestRequestsDependOnlyOnSeed(t *testing.T) {
	m := buildModel(300, 700)
	for _, sp := range specs {
		a, b := &gen{m: m, seed: 5, samples: sp.samples}, &gen{m: m, seed: 5, samples: sp.samples}
		var qa, qb []request
		if sp.drive == driveOpen {
			qa, qb = sp.schedule(a, sp.rate, time.Second), sp.schedule(b, sp.rate, time.Second)
		} else {
			qa, qb = sp.next(a, 7), sp.next(b, 7)
		}
		if len(qa) == 0 || len(qa) != len(qb) {
			t.Fatalf("%s: %d and %d requests", sp.name, len(qa), len(qb))
		}
		for i := range qa {
			if qa[i].path() != qb[i].path() || qa[i].due != qb[i].due {
				t.Fatalf("%s: request %d differs: %s vs %s", sp.name, i, qa[i].path(), qb[i].path())
			}
		}
	}
}

// TestDigestKeyedByBuild checks that answers recorded by one build are
// compared with later runs of that build only.
func TestDigestKeyedByBuild(t *testing.T) {
	sp, _ := specByName("flow-solo")
	o := tiny(t, sp.name, false)
	ph := func(answer uint64) *phase {
		p := newPhase(1, false)
		p.recs = append(p.recs, record{answer: answer, status: 200})
		return p
	}
	if err := compareDigest(o, sp, ph(1)); err != nil {
		t.Fatal(err)
	}
	other := o
	other.build = "other"
	if p := ph(2); compareDigest(other, sp, p) != nil || p.recs[0].failed {
		t.Fatalf("another build's answer was compared with this build's")
	}
	if p := ph(2); compareDigest(o, sp, p) != nil || !p.recs[0].failed {
		t.Fatalf("a changed answer of the same build was not caught")
	}
}
