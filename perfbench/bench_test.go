package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"testing"
)

type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// toyRun runs o at toy size for one round and returns the result line.
func toyRun(t *testing.T, o options) result {
	t.Helper()
	o.sz, o.seed, o.out = toy, 1, t.TempDir()
	var stdout, log bytes.Buffer
	if err := run(o, &stdout, &log); err != nil {
		t.Fatalf("%s: %v\n%s", o.workload, err, log.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line: %v", o.workload, err)
	}
	return res
}

// metricsMatch checks that res prints exactly the listed metrics, each with
// the listed unit.
func metricsMatch(t *testing.T, workload string, res result, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics printed, BENCHMARK.json lists %d", workload, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not printed", workload, m.Name)
		case got.Unit == "" || got.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", workload, m.Name, got.Unit, m.Unit)
		}
	}
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads: BENCHMARK.json %v, benchmark %v", names, workloadNames)
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer()) {
		t.Errorf("BENCHMARK.json lists %d+%d metrics, the benchmark prints %d+%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer()))
	}
}

func TestToyRunsPrintEveryMetric(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			res := toyRun(t, options{workload: w, trace: traced})
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			if traced {
				metricsMatch(t, w, res, b.PerLayer)
			} else {
				metricsMatch(t, w, res, b.EndToEnd)
			}
		}
	}
}

func TestWrongDigestIsCounted(t *testing.T) {
	for _, w := range workloadNames {
		res := toyRun(t, options{workload: w, want: []part{{Name: "Scheme", Hash: "0000000000000000"}}})
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: a wrong expected digest gave correct=%v failed=%d", w, res.Correct, res.Failed)
		}
	}
}

func TestFailingResponseIsCounted(t *testing.T) {
	var posts atomic.Int64
	wrap := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && posts.Add(1)%5 == 0 {
				http.Error(w, "stubbed failure", http.StatusInternalServerError)
				return
			}
			h.ServeHTTP(w, r)
		})
	}
	res := toyRun(t, options{workload: "serve_jobs", wrap: wrap})
	if res.Correct || res.Failed == 0 {
		t.Errorf("stubbed 500s gave correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
	}
}

func TestFoldSelfAttributesLeafPackages(t *testing.T) {
	for fn, want := range map[string]string{
		"rcast/internal/routing/dsr.(*Cache).Add":  "dsr",
		"rcast/internal/phy.(*Channel).Transmit":   "phy",
		"runtime.mallocgc":                         "runtime",
		"internal/runtime/maps.(*Map).getWithKey":  "runtime",
		"rcast/internal/scenario.newWorld.func1.2": "scenario",
		"rcast/internal/geom.Rect.RandomPoint":     "",
		"math.Pow":                                 "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestChargeLayerUsesInnermostLayerFrame(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"math.Pow", "rcast/internal/propagation.Fading.Decodable", "rcast/internal/phy.(*Channel).Transmit"}, "propagation"},
		{[]string{"sort.insertionSort", "sort.Sort", "rcast/internal/routing/dsr.(*Cache).Add"}, "dsr"},
		{[]string{"runtime.mallocgc", "rcast/internal/phy.(*Channel).Transmit"}, "runtime"},
		{[]string{"syscall.Syscall", "net/http.(*conn).serve", "runtime.goexit"}, ""},
		{[]string{"main.(*serveRound).do", "runtime.goexit"}, ""},
		{nil, ""},
	} {
		if got := chargeLayer(c.frames); got != c.want {
			t.Errorf("chargeLayer(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}
