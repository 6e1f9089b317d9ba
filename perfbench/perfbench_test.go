package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/surv"
	"repro/internal/svc"
)

// asMainEnv makes the test binary act as perfbench itself, so a parent run
// inside a test can spawn it as its child processes.
const asMainEnv = "PERFBENCH_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// tinyRun sets up and runs a workload at tiny scale in-process and requires
// every check to pass.
func tinyRun(t *testing.T, name string) instance {
	t.Helper()
	w := lookupWorkload(name)
	if w == nil {
		t.Fatalf("no workload %q", name)
	}
	inst := w.new(true)
	if err := inst.setup(7, nil); err != nil {
		t.Fatalf("%s setup: %v", name, err)
	}
	if _, err := inst.run(nil); err != nil {
		t.Fatalf("%s run: %v", name, err)
	}
	if got := failed(inst.checks()); len(got) != 0 {
		t.Fatalf("%s: honest run failed checks %v", name, got)
	}
	return inst
}

// failed returns the names of the failing checks.
func failed(cs []check) []string {
	var out []string
	for _, c := range cs {
		if !c.OK {
			out = append(out, c.Name)
		}
	}
	return out
}

func TestChecksRejectDoctoredResults(t *testing.T) {
	t.Run("transport", func(t *testing.T) {
		w := tinyRun(t, "transport-churn-12k").(*transportChurn)
		res := w.res
		res.CompletedFlows--
		if got := failed(transportChecks(len(w.flows), res)); len(got) != 1 {
			t.Errorf("a lost flow failed checks %v, want one", got)
		}
	})
	t.Run("svc", func(t *testing.T) {
		w := tinyRun(t, "svc-storm-1k5").(*svcStorm)
		for i, doctor := range []func(r *svc.Result){
			func(r *svc.Result) { r.Completed++ },
			func(r *svc.Result) { r.LegsTimedOut-- },
			func(r *svc.Result) { r.MaxRequestLegs = 1 << 30 },
		} {
			res := *w.res
			doctor(&res)
			if got := failed(svcChecks(&res, 300)); len(got) != 1 {
				t.Errorf("doctored svc result %d failed checks %v, want one", i, got)
			}
		}
	})
	t.Run("emu", func(t *testing.T) {
		w := tinyRun(t, "emu-serve-98k").(*emuServe)
		res := w.res
		res.Delivered--
		if got := failed(emuChecks(res)); len(got) != 1 {
			t.Errorf("a vanished message failed checks %v, want one", got)
		}
		res = w.res
		res.TimedOut++
		if got := failed(emuChecks(res)); len(got) != 1 {
			t.Errorf("an extra timeout failed checks %v, want one", got)
		}
	})
	t.Run("surv", func(t *testing.T) {
		w := tinyRun(t, "surv-churn-98k").(*survChurn)
		if w.res.Trials[0].Events == 0 {
			t.Fatal("tiny surv trial replayed no events; the checks would test nothing")
		}
		plans, err := w.plans(nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, doctor := range []func(r *surv.Result){
			func(r *surv.Result) { r.Events-- },
			func(r *surv.Result) { r.FinalLargestFrac /= 2 },
			func(r *surv.Result) { r.FinalReachableFrac += 1e-9 },
		} {
			trial := *w.res.Trials[0]
			doctor(&trial)
			stats := *w.res
			stats.Trials = append([]*surv.Result{&trial}, w.res.Trials[1:]...)
			if got := failed(survChecks(w.t.Network(), plans, w.cfg.HorizonSec, &stats)); len(got) != 1 {
				t.Errorf("doctored surv trial %d failed checks %v, want one", i, got)
			}
		}
	})
}

// benchmarkMetrics reads the metric lists of the repository's BENCHMARK.json.
func benchmarkMetrics(t *testing.T) (e2e, layers []metricDef) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
		Workloads []struct{ Name string }               `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program has %s", got, want)
	}
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
	}
	for _, m := range b.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit, m.Better})
	}
	return e2e, layers
}

var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesMatchBenchmark(t *testing.T) {
	e2e, layers := benchmarkMetrics(t)
	for _, c := range []struct {
		what      string
		got, want []metricDef
	}{{"end_to_end", e2eMetrics, e2e}, {"per_layer", layerMetrics, layers}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: program reports %d metrics, BENCHMARK.json lists %d", c.what, len(c.got), len(c.want))
			continue
		}
		for i := range c.got {
			if c.got[i] != c.want[i] {
				t.Errorf("%s[%d]: program %+v, BENCHMARK.json %+v", c.what, i, c.got[i], c.want[i])
			}
		}
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef{}, e2eMetrics...), layerMetrics...) {
		if !metricName.MatchString(m.name) || !metricUnit.MatchString(m.unit) {
			t.Errorf("metric %q unit %q breaks the naming rules", m.name, m.unit)
		}
		if seen[m.name] {
			t.Errorf("metric %q is listed twice", m.name)
		}
		seen[m.name] = true
	}
}

// keys returns a result's metric names, sorted.
func keys(m map[string]metricValue) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name)
	}
	sort.Strings(out)
	return out
}

// TestTinyRunsOfEveryWorkload runs the whole benchmark, child processes
// included, on every workload at tiny scale, untraced and traced, and holds
// the printed result to the output contract.
func TestTinyRunsOfEveryWorkload(t *testing.T) {
	t.Setenv(asMainEnv, "1")
	spans := t.TempDir()
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			var out, errb bytes.Buffer
			code := realMain([]string{"-workload", w, "-seed", "3", "-seconds", "0.001",
				"-trace", trace, "-scale", "tiny", "-spans", spans}, &out, &errb)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d\n%s", w, trace, code, errb.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var raw map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
				t.Fatalf("%s trace %s: last line is not JSON: %v", w, trace, err)
			}
			if got := strings.Join(sortedKeys(raw), ","); got != "attempted,correct,failed,metrics" {
				t.Errorf("%s trace %s: result keys %s", w, trace, got)
			}
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := names(e2eMetrics)
			if trace == "1" {
				want = names(layerMetrics)
			}
			if got := keys(res.Metrics); strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("%s trace %s: metrics %v, want %v", w, trace, got, want)
			}
			if trace == "0" && res.Metrics["ok_frac"].Value != 1 {
				t.Errorf("%s: ok_frac %v", w, res.Metrics["ok_frac"].Value)
			}
			// Every line before the result is one child's record.
			for _, l := range lines[:len(lines)-1] {
				var rec record
				if err := json.Unmarshal([]byte(l), &rec); err != nil || rec.Workload != w {
					t.Errorf("%s: bad child record %q: %v", w, l, err)
				}
			}
		}
	}
}

func sortedKeys(m map[string]json.RawMessage) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestLayerIsolation(t *testing.T) {
	// Each workload's probe fills only its own layers: the isolation the
	// workloads were chosen for.
	own := map[string][]string{
		"transport-churn-12k": {"packetsim.wait_s", "flowsim.route_s", "topology.paths_s"},
		"svc-storm-1k5":       {"svc.run_s"},
		"emu-serve-98k":       {"emu.run_s", "emu.discovery_s"},
		"surv-churn-98k":      {"surv.run_s", "graph.fail_us"},
	}
	for _, w := range workloadNames() {
		inst := lookupWorkload(w).new(true)
		tr := newTracer()
		if err := inst.setup(5, tr); err != nil {
			t.Fatal(err)
		}
		if _, err := inst.run(tr); err != nil {
			t.Fatal(err)
		}
		m, err := inst.probe(tr)
		if err != nil {
			t.Fatalf("%s probe: %v", w, err)
		}
		m = completeLayers(m)
		for other, metrics := range own {
			for _, name := range metrics {
				if got := m[name]; (other == w) != (got > 0) {
					t.Errorf("%s: %s = %v", w, name, got)
				}
			}
		}
	}
}

func TestSurvChildrenReplayDistinctPlans(t *testing.T) {
	// RunTrials seeds trial i with cfg.Seed+i, so the children of a run and
	// of the next seed must not share a trial seed.
	seen := map[int64]string{}
	for _, seed := range []int64{1, 2} {
		for child := 0; child < 5; child++ {
			inst := lookupWorkload("surv-churn-98k").new(true).(*survChurn)
			if err := inst.setup(childSeed(seed, child), nil); err != nil {
				t.Fatal(err)
			}
			who := fmt.Sprintf("seed %d child %d", seed, child)
			for i := 0; i < inst.cfg.Trials; i++ {
				s := inst.cfg.Seed + int64(i)
				if prev, ok := seen[s]; ok {
					t.Fatalf("%s trial %d reuses trial seed %d of %s", who, i, s, prev)
				}
				seen[s] = who
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] and
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0].
	for _, c := range []struct {
		in          []float64
		q1, med, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
	} {
		q1, med, q3 := quartiles(c.in)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Parent: -1, Name: "setup", Start: 0, End: 10},
		{ID: 1, Parent: 0, Name: "core.Build", Start: 1, End: 4},
		{ID: 2, Parent: 0, Name: "traffic.Permutation", Start: 5, End: 7},
	}}
	self := tr.selfTimes()
	if self["setup"] != 5 || self["core.Build"] != 3 || self["traffic.Permutation"] != 2 {
		t.Errorf("self times %v", self)
	}
}
