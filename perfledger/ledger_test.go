package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"testing"
	"time"

	"symbiosched/internal/experiments"
	"symbiosched/internal/workload"
)

// TestLayerMapCoversInternal fails when an internal package is added
// without a layer or an explicit place on the unmeasured list, or when the
// table names a package that no longer exists.
func TestLayerMapCoversInternal(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join("..", "internal"))
	if err != nil {
		t.Fatal(err)
	}
	skip := map[string]bool{}
	for _, u := range unmeasured {
		skip[u] = true
	}
	present := map[string]bool{}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		present[e.Name()] = true
		_, mapped := layerOf[e.Name()]
		if mapped == skip[e.Name()] {
			t.Errorf("internal/%s: mapped=%v unmeasured=%v; it must be exactly one", e.Name(), mapped, skip[e.Name()])
		}
	}
	for pkg := range layerOf {
		if !present[pkg] {
			t.Errorf("layer table maps internal/%s, which does not exist", pkg)
		}
	}
	for _, pkg := range unmeasured {
		if !present[pkg] {
			t.Errorf("unmeasured list names internal/%s, which does not exist", pkg)
		}
	}
}

func TestFuncPackage(t *testing.T) {
	cases := map[string]string{
		"symbiosched/internal/cache.(*Cache).AccessFast": "symbiosched/internal/cache",
		"runtime.mallocgc":                       "runtime",
		"internal/runtime/atomic.(*Uint32).Load": "internal/runtime/atomic",
		"main.main.func1":                        "main",
		"slices.insertionSortCmpFunc[go.shape.struct { symbiosched/internal/graph.to int32 }]": "slices",
	}
	for name, want := range cases {
		if got := funcPackage(name); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", name, got, want)
		}
	}
	if layerFor("symbiosched/internal/bitvec") != "bloom" || layerFor("symbiosched/internal/virt") != "other" ||
		layerFor("internal/runtime/atomic") != "runtime" || layerFor("math/rand") != "other" {
		t.Error("layerFor folds a package onto the wrong layer")
	}
}

// TestFoldProfile profiles a generator spin and checks that the decoder
// attributes it to the workload layer alone and that the fractions sum to 1.
func TestFoldProfile(t *testing.T) {
	p, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	gen := p.NewThreads(1, 1, 64)[0]
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	var sink uint64
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 10000; i++ {
			sink += gen.Next().Addr
		}
	}
	pprof.StopCPUProfile()
	_ = sink
	st, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if st.total == 0 {
		t.Skip("profile took no samples")
	}
	fr := st.fractions()
	assertFractions(t, fr)
	// The spin calls into no simulator package but workload. Its share is
	// not asserted: under the race detector instrumentation owns the profile.
	for l, f := range fr {
		if l != "workload" && l != "runtime" && l != "other" && f > 0 {
			t.Errorf("generator spin attributed %.2f to %s (%s)", f, l, st.top(5))
		}
	}
	if fr["workload"] == 0 {
		t.Errorf("generator spin attributed nothing to workload (%s)", st.top(5))
	}
}

func assertFractions(t *testing.T, fr map[string]float64) {
	t.Helper()
	if len(fr) != len(layers) {
		t.Errorf("%d layer fractions, want %d", len(fr), len(layers))
	}
	var total float64
	for _, f := range fr {
		total += f
	}
	if math.Abs(total-1) > 0.02 {
		t.Errorf("self fractions sum to %.4f, want 1 ± 0.02", total)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json's metric lists in step
// with what the runs report.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []spec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got := fmt.Sprint(names); got != workloadNames() {
		t.Errorf("BENCHMARK.json workloads %s, program %s", got, workloadNames())
	}
}

// smokeCheck asserts what every run must satisfy: the promised metric set,
// correct outputs, and (traced) self fractions that sum to 1.
func smokeCheck(t *testing.T, out *outcome, traced bool) {
	t.Helper()
	if err := out.complete(traced); err != nil {
		t.Fatal(err)
	}
	if len(out.problems) > 0 || out.failed > 0 || out.attempted < 1 {
		t.Fatalf("attempted %d failed %d problems %v", out.attempted, out.failed, out.problems)
	}
	if out.digest == "" {
		t.Error("no outcome digest")
	}
	if !traced {
		for _, s := range endToEnd {
			if v := out.metrics[s.name].Value; !(v > 0) {
				t.Errorf("%s = %v, want > 0", s.name, v)
			}
		}
		return
	}
	fr := map[string]float64{}
	for _, l := range layers {
		fr[l] = out.metrics[l+".self_frac"].Value
	}
	assertFractions(t, fr)
}

func smokeOptions(t *testing.T, name string, traced bool) options {
	return options{workload: name, seed: 1, seconds: 0.01, traced: traced, workdir: t.TempDir()}
}

// The smoke tests run each workload at a tiny scale: a one-mix sweep (four
// profiles) and a P0 = 64 churn campaign.
func TestSmokeSweepSynth(t *testing.T) {
	for _, traced := range []bool{false, true} {
		opt := smokeOptions(t, "sweep-synth", traced)
		b, err := prepareSynthSweep(opt, specPool[:mixSize])
		if err != nil {
			t.Fatal(err)
		}
		out, err := b.run(opt)
		if err != nil {
			t.Fatal(err)
		}
		smokeCheck(t, out, traced)
		if traced && out.metrics["engine.instructions_p2"].Value == 0 {
			t.Error("traced sweep counted no phase-2 instructions")
		}
	}
}

func TestSmokeSweepTrace(t *testing.T) {
	for _, traced := range []bool{false, true} {
		opt := smokeOptions(t, "sweep-trace", traced)
		b, cleanup, err := prepareTraceSweep(opt, specPool[:mixSize])
		if err != nil {
			t.Fatal(err)
		}
		out, err := b.run(opt)
		cleanup()
		if err != nil {
			t.Fatal(err)
		}
		smokeCheck(t, out, traced)
		if len(out.fingerprints) != mixSize {
			t.Errorf("%d trace fingerprints, want %d", len(out.fingerprints), mixSize)
		}
	}
}

func TestSmokeChurn(t *testing.T) {
	for _, traced := range []bool{false, true} {
		opt := smokeOptions(t, "churn-p1024", traced)
		cfg := churnConfig(opt.seed)
		cfg.P0, cfg.Cores, cfg.Quanta, cfg.MeanLife = 64, 4, 40, 32
		out, err := churnWith(opt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		smokeCheck(t, out, traced)
	}
}

// TestOutcomeDigestCoversCycles checks that the digest moves with a single
// candidate's cycle count, not only with the chosen mapping.
func TestOutcomeDigestCoversCycles(t *testing.T) {
	o := []experiments.MixOutcome{{
		Names: []string{"a", "b"}, Chosen: []int{0, 1}, ChosenIdx: 0,
		Candidates: []experiments.MixResult{{Mapping: []int{0, 1}, UserCycles: []uint64{10, 20}, WallCycles: 30}},
	}}
	base := outcomeDigest(o)
	o[0].Candidates[0].UserCycles[1]++
	if outcomeDigest(o) == base {
		t.Error("digest ignores a candidate's user cycles")
	}
	o[0].Candidates[0].UserCycles[1]--
	o[0].Candidates[0].WallCycles++
	if outcomeDigest(o) == base {
		t.Error("digest ignores a candidate's wall cycles")
	}
}

func TestCompareRefusesMixedHosts(t *testing.T) {
	a := recorded{file: "a", rec: record{Host: host{CPU: "x", NProc: 2, GOMAXPROCS: 2, GOARCH: "amd64", GoVersion: "go1.24.0"}}}
	b := a
	b.file = "b"
	if err := sameHost([][]recorded{{a}, {b}}); err != nil {
		t.Fatalf("same host refused: %v", err)
	}
	b.rec.Host.NProc = 4
	if err := sameHost([][]recorded{{a}, {b}}); err == nil {
		t.Error("runs from different hosts compared without error")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
