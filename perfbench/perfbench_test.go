package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/ftdse/service"
)

func docsOf(t *testing.T, ins []input) [][]byte {
	var out [][]byte
	for _, in := range ins {
		if err := in.encode(); err != nil {
			t.Fatal(err)
		}
		out = append(out, in.doc)
	}
	return out
}

func TestInputsAreSeeded(t *testing.T) {
	pattern := []dim{{20, 2, 3}, {40, 3, 4}}
	a, b, c := dseInputs(7, pattern, 8), dseInputs(7, pattern, 8), dseInputs(8, pattern, 8)
	if !reflect.DeepEqual(docsOf(t, a), docsOf(t, b)) {
		t.Error("one seed gave two different dse input sets")
	}
	if reflect.DeepEqual(docsOf(t, a), docsOf(t, c)) {
		t.Error("seeds 7 and 8 gave the same dse input set")
	}

	ta, err := newServeTraffic(7, fullSize)
	if err != nil {
		t.Fatal(err)
	}
	tb, _ := newServeTraffic(7, fullSize)
	tc, _ := newServeTraffic(8, fullSize)
	if !reflect.DeepEqual(ta.seq, tb.seq) || !reflect.DeepEqual(docsOf(t, ta.problems), docsOf(t, tb.problems)) {
		t.Error("one seed gave two different serve traffics")
	}
	if reflect.DeepEqual(ta.seq, tc.seq) || reflect.DeepEqual(docsOf(t, ta.problems), docsOf(t, tc.problems)) {
		t.Error("seeds 7 and 8 gave the same serve traffic")
	}
	hot := 0
	for _, p := range ta.seq {
		if p < ta.hot {
			hot++
		}
	}
	if want := len(ta.seq) * (blockOps - blockFresh) / blockOps; hot < want {
		t.Errorf("%d of %d operations are hot, want at least %d", hot, len(ta.seq), want)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNamesMatchManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	listed := func(defs []struct{ Name, Unit string }) []metricDef {
		var out []metricDef
		for _, d := range defs {
			out = append(out, metricDef{d.Name, d.Unit})
		}
		return out
	}
	if got := listed(manifest.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %v, the benchmark prints %v", got, endToEnd)
	}
	if got := listed(manifest.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer = %v, the benchmark prints %v", got, perLayer)
	}
	var names []string
	for _, w := range manifest.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads = %v, the benchmark runs %v", names, workloadNames())
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) || seen[d.name] {
			t.Errorf("metric name %q is malformed or repeated", d.name)
		}
		seen[d.name] = true
	}
}

func TestTailRuleLeavesTenSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 21; n <= 20000; n += 1 + n/50 {
		p := tailPercentile(n)
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = rng.Float64()
		}
		v := percentile(samples, p)
		over := 0
		for _, s := range samples {
			if s > v {
				over++
			}
		}
		if over < 10 {
			t.Errorf("n=%d: p%g leaves %d samples beyond it", n, p, over)
		}
		if beyond(n, p) < 10 {
			t.Errorf("n=%d: p%g: beyond() = %d", n, p, beyond(n, p))
		}
		for _, q := range tailLadder {
			if q > p && beyond(n, q) >= 10 {
				t.Errorf("n=%d: p%g also leaves ten samples but p%g was chosen", n, q, p)
			}
		}
	}
	if got := tailPercentile(1000); got != 99 {
		t.Errorf("tailPercentile(1000) = %g, want 99", got)
	}
}

func TestWindowedRateIgnoresAStall(t *testing.T) {
	// One caller, 100 ms operations back to back for 10 s: 10 ops/s.
	var ops []interval
	for at := time.Duration(0); at < 10*time.Second; at += 100 * time.Millisecond {
		ops = append(ops, interval{at, at + 100*time.Millisecond})
	}
	if got := windowedRate(ops, 10*time.Second); got < 9.999 || got > 10.001 {
		t.Errorf("steady operations: %g ops/s, want 10", got)
	}
	// A 3 s stall inside one operation, straddling windows, costs 29
	// operations overall but leaves most windows at 10 ops/s.
	stalled := append([]interval(nil), ops[:25]...)
	stalled = append(stalled, interval{2500 * time.Millisecond, 5500 * time.Millisecond})
	for _, op := range ops[26:71] {
		stalled = append(stalled, interval{op.start + 2900*time.Millisecond, op.end + 2900*time.Millisecond})
	}
	if got := windowedRate(stalled, 10*time.Second); got < 9.999 || got > 10.001 {
		t.Errorf("one stall: %g ops/s, want 10", got)
	}
	if got := float64(len(stalled)) / 10; got > 7.2 {
		t.Errorf("the stall should cost the plain rate, got %g ops/s", got)
	}
}

// TestHitDetection submits a problem twice and a fresh one once, to a
// service and to a coordinator, and classifies the answers.
func TestHitDetection(t *testing.T) {
	traffic, err := newServeTraffic(3, tinySize)
	if err != nil {
		t.Fatal(err)
	}
	for _, clustered := range []bool{false, true} {
		env, err := startEnv(clustered)
		if err != nil {
			t.Fatal(err)
		}
		classify := func(i int) bool {
			st, err := env.cl.SubmitWait(context.Background(), traffic.problems[i].problem, serveOpts)
			if err != nil || st.State != service.StateDone {
				t.Fatalf("clustered=%t: submit: %v (%s)", clustered, err, st.State)
			}
			var res service.JobResult
			if err := json.Unmarshal(st.Result, &res); err != nil {
				t.Fatal(err)
			}
			hit := isHit(st.TraceID, res.TraceID)
			if !clustered && hit != st.Cached {
				t.Errorf("service: rule says hit=%t, status says cached=%t", hit, st.Cached)
			}
			return hit
		}
		if classify(0) {
			t.Errorf("clustered=%t: the first solve of a problem was classified a hit", clustered)
		}
		if !classify(0) {
			t.Errorf("clustered=%t: a primed problem was classified a miss", clustered)
		}
		if classify(1) {
			t.Errorf("clustered=%t: a fresh problem was classified a hit", clustered)
		}
		env.close()
	}
}

func TestWorkloadsRunTiny(t *testing.T) {
	for _, w := range workloads() {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: 5, seconds: 300 * time.Millisecond, traced: traced, size: tinySize, tailP: 90}
			rep, err := w.run(cfg)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			if len(rep.failures) > 0 {
				t.Errorf("%s traced=%t: checks failed: %s", w.name, traced, strings.Join(rep.failures, "; "))
			}
			var out bytes.Buffer
			if err := printReport(&out, w.name, rep, traced); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var line map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", w.name, err)
			}
			var keys []string
			for k := range line {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if !reflect.DeepEqual(keys, []string{"attempted", "correct", "failed", "metrics"}) {
				t.Errorf("%s: result keys %v", w.name, keys)
			}
			if rep.attempted < 1 {
				t.Errorf("%s: no operation attempted", w.name)
			}
			if !traced {
				for _, d := range endToEnd {
					if rep.metrics[d.name] <= 0 {
						t.Errorf("%s: %s = %g, want > 0", w.name, d.name, rep.metrics[d.name])
					}
				}
			}
		}
	}
}
