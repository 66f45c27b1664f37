package experiments

import (
	"encoding/json"
	"testing"
	"time"
)

func testChurnConfig() ChurnConfig {
	return ChurnConfig{
		Mode:        "poisson",
		Seed:        7,
		P0:          96,
		Cores:       8,
		Quanta:      60,
		ArrivalRate: 2,
		MeanLife:    48,
		RefreshFrac: 0.1,
		FragLimit:   0.5,
		MissLimit:   1 << 30, // effectively off: exercise the pure incremental path
	}
}

// TestChurnDeterministic: one seed, one campaign, one byte sequence — the
// whole loop (Poisson arrivals, geometric departures, top-m splice, repair,
// aging, drift fallback) must be replayable.
func TestChurnDeterministic(t *testing.T) {
	a, err := json.Marshal(RunChurn(testChurnConfig()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(RunChurn(testChurnConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("same seed, different reports:\n%s\n%s", a, b)
	}
	// A different seed must actually change the outcome (the checksum is
	// not a constant).
	cfg := testChurnConfig()
	cfg.Seed = 8
	c, _ := json.Marshal(RunChurn(cfg))
	if string(a) == string(c) {
		t.Fatal("different seeds produced identical reports")
	}
}

func TestChurnPoissonCampaign(t *testing.T) {
	rep := RunChurn(testChurnConfig())
	if rep.Arrivals == 0 || rep.Departures == 0 {
		t.Fatalf("no churn happened: %+v", rep)
	}
	if rep.Rebuilds != 0 {
		t.Fatalf("rebuild fallback fired with MissLimit off: %+v", rep)
	}
	if rep.Refreshes == 0 {
		t.Fatal("aging refresh never updated an edge")
	}
	if rep.FinalAlive <= 0 {
		t.Fatalf("population died out: %+v", rep)
	}
	if rep.Checksum == "" {
		t.Fatal("no checksum")
	}
}

// TestChurnTraceMode drives an explicit schedule and checks exact counts:
// trace mode is the reproducible-experiment interface.
func TestChurnTraceMode(t *testing.T) {
	cfg := churnTraceConfig()
	rep := RunChurn(cfg)
	if rep.Arrivals != 3 || rep.Departures != 3 {
		t.Fatalf("trace counts: %+v", rep)
	}
	if rep.FinalAlive != 32 {
		t.Fatalf("final population %d, want 32", rep.FinalAlive)
	}
	a, _ := json.Marshal(rep)
	b, _ := json.Marshal(RunChurn(cfg))
	if string(a) != string(b) {
		t.Fatal("trace campaign not deterministic")
	}
}

// TestChurnRebuildFallback: with a tight miss budget the drift probe must
// eventually trip the auto-rebuild, and the campaign must keep running
// correctly afterwards.
func TestChurnRebuildFallback(t *testing.T) {
	cfg := testChurnConfig()
	cfg.MissLimit = 1
	cfg.Quanta = 80
	rep := RunChurn(cfg)
	if rep.Rebuilds == 0 {
		t.Fatalf("tight MissLimit never triggered a rebuild: %+v", rep)
	}
	if rep.Misses == 0 {
		t.Fatalf("no sparsification misses recorded: %+v", rep)
	}
	if rep.FinalAlive <= 0 {
		t.Fatalf("campaign broke after rebuild: %+v", rep)
	}
	a, _ := json.Marshal(rep)
	b, _ := json.Marshal(RunChurn(cfg))
	if string(a) != string(b) {
		t.Fatal("rebuild path not deterministic")
	}
}

// TestChurnObserverDoesNotChangeReport: timing observation must be free of
// side effects on the deterministic outcome.
func TestChurnObserverDoesNotChangeReport(t *testing.T) {
	plain, _ := json.Marshal(RunChurn(testChurnConfig()))
	cfg := testChurnConfig()
	events := 0
	cfg.OnEvent = func(kind string, d time.Duration) {
		events++
		if d < 0 {
			t.Errorf("negative duration for %s", kind)
		}
	}
	observed, _ := json.Marshal(RunChurn(cfg))
	if string(plain) != string(observed) {
		t.Fatal("observer changed the report")
	}
	if events == 0 {
		t.Fatal("observer never fired")
	}
}

// churnTraceConfig is the explicit-schedule campaign TestChurnTraceMode and
// the golden checksums share.
func churnTraceConfig() ChurnConfig {
	return ChurnConfig{
		Mode:   "trace",
		Seed:   3,
		P0:     32,
		Cores:  4,
		Quanta: 10,
		Schedule: []ChurnEvent{
			{Quantum: 1, Arrive: true},
			{Quantum: 2, Arrive: true},
			{Quantum: 3, Arrive: false},
			{Quantum: 5, Arrive: false},
			{Quantum: 5, Arrive: false},
			{Quantum: 9, Arrive: true},
		},
		RefreshFrac: 0.25,
	}
}

// churnBenchConfig is the repo benchmark's churn-p1024 campaign shape.
func churnBenchConfig(seed int64) ChurnConfig {
	return ChurnConfig{
		Mode:        "poisson",
		Seed:        seed,
		P0:          1024,
		Cores:       64,
		Quanta:      2000,
		ArrivalRate: 2,
		MeanLife:    512,
		RefreshFrac: 0.5 / 1024,
		FragLimit:   0.6,
		MissLimit:   256,
	}
}

// TestChurnGoldenChecksums pins every campaign shape to the report checksum
// it produced before partner scoring moved to the columnar table: a change
// to the arrival or probe path that alters any placement, migration count,
// miss count or final assignment shows up here as a different checksum.
func TestChurnGoldenChecksums(t *testing.T) {
	rebuild := testChurnConfig()
	rebuild.MissLimit = 1
	rebuild.Quanta = 80
	cases := []struct {
		name string
		cfg  ChurnConfig
		want string
		long bool
	}{
		{"poisson", testChurnConfig(), "0f6db3d20360ad52", false},
		{"trace", churnTraceConfig(), "47317d2f3aab84e4", false},
		{"rebuild", rebuild, "e8bdefd2f46ad998", false},
		{"p1024/seed0", churnBenchConfig(0), "4b41cb2564a164cd", true},
		{"p1024/seed1", churnBenchConfig(1), "d0c6c5ee4ad71dc5", true},
		{"p1024/seed2", churnBenchConfig(2), "1ccf489fa9fcf7f4", true},
		{"p1024/seed3", churnBenchConfig(3), "b3390c25464db996", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("P0=1024 campaign skipped in -short mode")
			}
			if got := RunChurn(tc.cfg).Checksum; got != tc.want {
				t.Fatalf("checksum %s, want %s", got, tc.want)
			}
		})
	}
}
