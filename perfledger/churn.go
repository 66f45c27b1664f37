package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"symbiosched/internal/experiments"
)

// churn-p1024 is a seeded Poisson arrival/departure campaign through
// experiments.RunChurn at P0 = 1024 threads on k = 64 cores with the drift
// fallback armed: the live allocator's decision path (graph, alloc,
// monitor, experiments), which is under 2% of the sweeps. The engine never
// runs. It is a closed batch loop: the schedule is in simulated quanta, and
// the next campaign starts when the previous one ends.

const (
	churnP0     = 1024
	churnCores  = 64
	churnQuanta = 2000
	// minChurnReps keeps the medians meaningful when --seconds is short.
	minChurnReps = 3
	// churnSetupReps repeats the ~20 ms initial build for a stable median.
	churnSetupReps = 15
	// tracedChurnReps is how many campaigns the traced run measures on each
	// side; at ~0.8 s each the profiled side gathers several hundred samples.
	tracedChurnReps = 5
)

func churnConfig(seed int64) experiments.ChurnConfig {
	return experiments.ChurnConfig{
		Mode:        "poisson",
		Seed:        seed,
		P0:          churnP0,
		Cores:       churnCores,
		Quanta:      churnQuanta,
		ArrivalRate: 2,
		// Two departures per quantum at P = 1024 balance the two arrivals,
		// so the population hovers near P0.
		MeanLife:    churnP0 / 2,
		RefreshFrac: 0.5 / churnP0, // one aging refresh per quantum
		FragLimit:   0.6,
		MissLimit:   256,
	}
}

// churnRun is one timed campaign.
type churnRun struct {
	report experiments.ChurnReport
	wall   float64 // s
	cpu    float64 // s
	events eventLog
}

// eventLog holds one campaign's event durations by kind. It is reused from
// campaign to campaign so the harness's own heap stays flat: samples that
// piled up across campaigns would slow the collector's pace as a run went
// on and make later campaigns read faster than earlier ones.
type eventLog map[string][]time.Duration

// campaign runs one campaign, logging every event's duration by kind into
// log (which it clears first); onEvent (may be nil) additionally sees each
// event as it ends.
func campaign(cfg experiments.ChurnConfig, log eventLog, onEvent func(kind string, d time.Duration)) churnRun {
	for k := range log {
		log[k] = log[k][:0]
	}
	cfg.OnEvent = func(kind string, d time.Duration) {
		log[kind] = append(log[kind], d)
		if onEvent != nil {
			onEvent(kind, d)
		}
	}
	r := churnRun{events: log}
	c0, t0 := cpuSeconds(), time.Now()
	r.report = experiments.RunChurn(cfg)
	r.wall, r.cpu = time.Since(t0).Seconds(), cpuSeconds()-c0
	return r
}

// arrivals returns the arrival durations in microseconds, reusing buf.
func (r churnRun) arrivals(buf []float64) []float64 {
	xs := buf[:0]
	for _, d := range r.events["arrive"] {
		xs = append(xs, micros(d))
	}
	return xs
}

// checkChurn validates a campaign report against its own event log.
func checkChurn(out *outcome, cfg experiments.ChurnConfig, r churnRun) {
	rep := r.report
	if got := len(r.events["arrive"]) + len(r.events["depart"]); got != rep.Arrivals+rep.Departures {
		out.fail("churn: %d timed structural events, report counts %d", got, rep.Arrivals+rep.Departures)
	}
	if rep.FinalAlive != cfg.P0+rep.Arrivals-rep.Departures {
		out.fail("churn: %d threads alive, want %d + %d − %d", rep.FinalAlive, cfg.P0, rep.Arrivals, rep.Departures)
	}
	if rep.Arrivals == 0 || rep.Departures == 0 || rep.Checksum == "" {
		out.fail("churn: degenerate campaign %+v", rep)
	}
	out.quality = map[string]float64{
		"migrations_per_event": ratio(float64(rep.Migrations), float64(rep.Arrivals+rep.Departures)),
		"rebuilds":             float64(rep.Rebuilds),
		"compacts":             float64(rep.Compacts),
		"final_cut":            rep.FinalCut,
	}
}

func runChurn(opt options) (*outcome, error) {
	return churnWith(opt, churnConfig(opt.seed))
}

// churnWith measures campaigns of cfg (the tests pass a smaller one).
func churnWith(opt options, cfg experiments.ChurnConfig) (*outcome, error) {
	setup, _ := timedMedian(churnSetupReps, func() error {
		c := cfg
		c.Quanta = 0
		experiments.RunChurn(c)
		return nil
	})
	if opt.traced {
		return churnTraced(opt, cfg)
	}
	out := &outcome{}
	var walls, cpus, rates, p50s, tails, ev []float64
	var sums []string
	var last churnRun
	log := eventLog{}
	// One untimed campaign first, so the timed ones start from a heap and
	// caches at their steady state.
	campaign(cfg, log, nil)
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	for another(walls, minChurnReps, deadline) {
		runtime.GC()
		r := campaign(cfg, log, nil)
		ev = r.arrivals(ev)
		walls = append(walls, r.wall)
		cpus = append(cpus, r.cpu)
		rates = append(rates, float64(r.report.Arrivals+r.report.Departures)/r.wall)
		p50s = append(p50s, quantile(ev, 0.5))
		tails = append(tails, quantile(ev, tailQuantile))
		sums = append(sums, r.report.Checksum)
		last = r
		fmt.Fprintf(os.Stderr, "perfledger: campaign %d: %.4fs wall, %.4fs cpu, checksum %s\n", len(walls), r.wall, r.cpu, r.report.Checksum)
	}
	out.attempted = len(walls)
	out.digest, out.failed = agree(sums)
	checkChurn(out, cfg, last)
	out.set("wall_s", median(walls))
	out.set("cpu_s", median(cpus))
	out.set("ops_per_s", median(rates))
	out.set("op_p50_us", median(p50s))
	out.set("op_tail_us", median(tails))
	out.set("peak_rss_mib", peakRSSMiB())
	out.set("setup_s", setup)
	return out, nil
}

// churnTraced is the per-layer measurement of churn-p1024: untraced
// campaigns for reference, then the same number profiled with a span per
// event. The aging refreshes are the monitor layer's work here.
func churnTraced(opt options, cfg experiments.ChurnConfig) (*outcome, error) {
	out := &outcome{}
	var sums []string
	var plain []float64
	log := eventLog{}
	for i := 0; i < tracedChurnReps; i++ {
		r := campaign(cfg, log, nil)
		plain = append(plain, r.wall)
		sums = append(sums, r.report.Checksum)
	}
	rec := newRecorder()
	var runs []churnRun
	st, ms0, ms1, err := profiled(func() error {
		for i := 0; i < tracedChurnReps; i++ {
			root := rec.reserve(0, "churn.campaign", time.Now())
			r := campaign(cfg, eventLog{}, func(kind string, d time.Duration) {
				end := time.Now()
				rec.add(root, "churn."+kind, end.Add(-d), end)
			})
			rec.finish(root, time.Now())
			runs = append(runs, r)
			sums = append(sums, r.report.Checksum)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfledger: %s self time by leaf package: %s\n", opt.workload, st.top(8))
	out.attempted = len(sums)
	out.digest, out.failed = agree(sums)
	last := runs[len(runs)-1]
	checkChurn(out, cfg, last)

	var traced []float64
	for _, r := range runs {
		traced = append(traced, r.wall)
	}
	n := float64(len(runs))
	refresh := rec.durations("churn.refresh")
	out.setFractions(st)
	out.set("graph.insert_p50_us", durMedianMicros(rec.durations("churn.arrive")))
	out.set("graph.remove_p50_us", durMedianMicros(rec.durations("churn.depart")))
	out.set("graph.rebuilds", float64(last.report.Rebuilds))
	out.set("graph.compacts", float64(last.report.Compacts))
	out.set("monitor.invocations", float64(len(refresh))/n)
	out.set("monitor.busy_ms", durSum(refresh).Seconds()*1e3/n)
	out.set("monitor.p50_us", durMedianMicros(refresh))
	out.set("experiments.migrations_per_event", out.quality["migrations_per_event"])
	out.set("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC)/n)
	out.set("runtime.alloc_mib", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20)/n)
	out.set("tracing_overhead_frac", median(traced)/median(plain)-1)

	path, err := rec.write(opt.workdir, fmt.Sprintf("spans-%s-seed%d", opt.workload, opt.seed))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfledger: %d spans written to %s\n", len(rec.spans), path)
	return out, nil
}
