package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/load"
)

func TestPercentileNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // unsorted on purpose
	}
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 99, 0},
		{[]float64{7}, 99, 7},
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 99, 10},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 90, 9},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 1, 1},
		{hundred, 99, 99},
		{hundred, 50, 50},
		{hundred, 100, 100},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", c.xs, c.p, got, c.want)
		}
	}
	if hundred[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %g, want 2.5", got)
	}
}

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		"repro/internal/sim.(*Engine).eventStepPair":                                "sim",
		"repro/internal/sim.(*Reg[...]).Commit":                                     "sim",
		"repro/internal/sim.(*Reg[go.shape.struct { Start bool; DIn uint32 }]).Set": "sim",
		"repro/internal/sim.(*Reg[repro/internal/imu.state]).Commit":                "sim",
		"repro/internal/copro/ideacp.(*Core).Eval":                                  "copro",
		"repro/internal/copro/adpcmdec.(*Core).Update":                              "copro",
		"repro/internal/copro/vecadd.(*Core).Eval":                                  "copro",
		"repro/internal/copro.(*Mem).Drive (inline)":                                "copro",
		"repro/internal/rcsched.Serve.func1":                                        "rcsched",
		"repro/internal/fleet.Run.gowrap1":                                          "fleet",
		"repro.(*Process).FPGAExecute":                                              "core",
		"repro/internal/core.(*Session).Execute":                                    "core",
		"repro/internal/kernel.(*Kernel).WriteUser":                                 "other",
		"runtime.mallocgc":                                                          "runtime",
		"runtime/internal/atomic.(*Uint64).Add":                                     "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":                              "runtime",
		"memeqbody":                            "runtime",
		"sort.Slice":                           "other",
		"encoding/json.(*encodeState).marshal": "other",
		"repro/perfbench.(*bench).do":          "other",
		"main.(*bench).do":                     "other",
		"type:.eq.repro/internal/rcsched.Job":  "other",
	}
	for sym, want := range cases {
		if got := layerOf(sym); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", sym, got, want)
		}
	}
}

func TestSharesFromTop(t *testing.T) {
	top := `File: perfbench
Type: cpu
Duration: 3.14s, Total samples = 2s (63.69%)
Showing nodes accounting for 2s, 100% of 2s total
      flat  flat%   sum%        cum   cum%
     1.20s 60.00% 60.00%      1.73s 86.50%  repro/internal/sim.(*Domain).tick
    400ms 20.00% 80.00%      0.37s 18.50%  repro/internal/copro/ideacp.(*Core).Eval
    0.20s 10.00% 90.00%      0.20s 10.00%  repro/internal/sim.(*Reg[go.shape.struct { Obj uint8 }]).Commit (inline)
   100000us  5.00% 95.00%   0.1s  5.00%  runtime.asyncPreempt
   1e8ns  5.00%   100%      0.1s  5.00%  sort.Slice
         0     0%   100%      0.01s  0.34%  bytes.Equal (inline)
`
	got, err := sharesFromTop(top)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sim": 0.7, "copro": 0.2, "runtime": 0.05, "other": 0.05}
	sum := 0.0
	for _, b := range cpuBuckets {
		sum += got[b]
		if math.Abs(got[b]-want[b]) > 1e-12 {
			t.Errorf("share[%s] = %g, want %g", b, got[b], want[b])
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %g, want 1", sum)
	}
	if _, err := sharesFromTop("no header here\n"); err == nil {
		t.Error("a profile without rows parsed")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkName rejects a metric name or unit outside the result format's
// charset.
func checkName(name, unit string) error {
	if !nameRE.MatchString(name) {
		return fmt.Errorf("metric name %q outside [A-Za-z0-9_.-], 64 long, leading letter or digit", name)
	}
	if !unitRE.MatchString(unit) {
		return fmt.Errorf("metric %s: unit %q outside [A-Za-z0-9_/%%.-], 16 long", name, unit)
	}
	return nil
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, w := range allWorkloads {
		if err := checkName(w, "count"); err != nil {
			t.Error(err)
		}
	}
	check := func(name, unit, better string) {
		if err := checkName(name, unit); err != nil {
			t.Error(err)
		}
		if seen[name] {
			t.Errorf("metric %s defined twice", name)
		}
		seen[name] = true
		if better != "higher" && better != "lower" {
			t.Errorf("metric %s: better %q", name, better)
		}
	}
	for _, m := range endToEnd {
		check(m.Name, m.Unit, m.Better)
	}
	for _, m := range layers {
		check(m.Name, m.Unit, m.Better)
	}
	for _, bad := range [][2]string{{"_lead", "ms"}, {"has space", "ms"}, {strings.Repeat("x", 65), "ms"},
		{"ok", ""}, {"ok", "m s"}, {"ok", strings.Repeat("u", 17)}} {
		if checkName(bad[0], bad[1]) == nil {
			t.Errorf("checkName(%q, %q) accepted", bad[0], bad[1])
		}
	}
}

// TestLayerPredictions enforces that every per-layer metric names the
// end-to-end metrics it should move and the workloads it moves them on
// (telemetry metrics, which describe the traced run itself, excepted), and
// that every CPU bucket has its share metric.
func TestLayerPredictions(t *testing.T) {
	e2e := map[string]bool{}
	for _, m := range endToEnd {
		e2e[m.Name] = true
	}
	wl := map[string]bool{}
	for _, w := range allWorkloads {
		wl[w] = true
	}
	names := map[string]bool{}
	for _, m := range layers {
		names[m.Name] = true
		if strings.HasPrefix(m.Name, "telemetry.") {
			if len(m.Moves)+len(m.On)+len(m.Still) != 0 {
				t.Errorf("%s: telemetry metrics predict no end-to-end movement", m.Name)
			}
			continue
		}
		if len(m.Moves) == 0 || len(m.On) == 0 {
			t.Errorf("%s: names no end-to-end metric or workload it moves", m.Name)
		}
		for _, e := range m.Moves {
			if !e2e[e] {
				t.Errorf("%s moves unknown end-to-end metric %q", m.Name, e)
			}
		}
		on := map[string]bool{}
		for _, w := range m.On {
			on[w] = true
			if !wl[w] {
				t.Errorf("%s: unknown workload %q", m.Name, w)
			}
		}
		for _, w := range m.Still {
			if !wl[w] || on[w] {
				t.Errorf("%s: no-change workload %q unknown or also predicted to move", m.Name, w)
			}
		}
	}
	for _, b := range cpuBuckets {
		if !names[b+".cpu_share"] {
			t.Errorf("CPU bucket %s has no %s.cpu_share metric", b, b)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, the metric tables and the doc in
// step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(spec.Workloads), len(allWorkloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != allWorkloads[i] || w.Why == "" {
			t.Errorf("workload %d = %q (why %q), want %q with a reason", i, w.Name, w.Why, allWorkloads[i])
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, want %d", len(spec.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end[%d] = %+v, want %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %g is not the largest (%g)", m.Bound, maxBound)
		}
	}
	if len(spec.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, want %d", len(spec.PerLayer), len(layers))
	}
	for i, m := range spec.PerLayer {
		d := layers[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, want %s %s %s", i, m, d.Name, d.Unit, d.Better)
		}
	}
	doc, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range layers {
		if !bytes.Contains(doc, []byte("`"+m.Name+"`")) {
			t.Errorf("README.md does not document %s", m.Name)
		}
	}
}

// TestRun drives the command end to end on the cheapest workload and
// checks the result line's shape and the failure exit paths.
func TestRun(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"--workload", paperVIM, "--seed", "3", "--seconds", "0.01", "--trace", "0"}, &out, &errs); code != 0 {
		t.Fatalf("exit %d, stderr %s", code, errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("result %+v", res)
	}
	for _, m := range endToEnd {
		v, ok := res.Metrics[m.Name]
		if !ok || v.Unit != m.Unit || v.Value <= 0 {
			t.Errorf("metric %s = %+v (present %v), want a positive value in %s", m.Name, v, ok, m.Unit)
		}
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(endToEnd))
	}
	for _, args := range [][]string{{"--workload", "nope"}, {"--trace", "2"}, {"--seconds", "0"}, {"stray"}} {
		out.Reset()
		if code := run(args, &out, &errs); code != 2 || strings.Contains(out.String(), "{") {
			t.Errorf("run(%q) = exit %d with output %q, want exit 2 and no result", args, code, out.String())
		}
	}
}

// TestLintClean holds this module to the repository's vimlint suite, as
// the root module's own TestLintClean does for every package there.
func TestLintClean(t *testing.T) {
	pkgs, err := load.New(".").Packages(true, "./...")
	if err != nil {
		t.Fatalf("loading packages: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loader found no packages")
	}
	for _, pkg := range pkgs {
		diags, err := lint.RunPackage(pkg)
		if err != nil {
			t.Fatalf("%s: %v", pkg.Path, err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
}
