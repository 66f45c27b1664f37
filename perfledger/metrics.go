package main

import "fmt"

// spec names one reported metric and its unit. BENCHMARK.json lists the
// same names; the package test keeps the two in step.
type spec struct{ name, unit string }

// endToEnd is what every untraced run reports; every workload reports the
// same names. A "unit of work" is one full sweep or one churn campaign. On
// the sweeps an "op" is a scheduler task (one simulated run: phase 1 or a
// candidate mapping). On churn-p1024 the throughput counts arrivals and
// departures, and the latencies time arrivals, the placement decisions:
// departures cost a quarter as much, so the median of the two together
// would flip between the two clusters with each seed's event mix.
var endToEnd = []spec{
	{"wall_s", "s"},         // host wall time of one unit of work
	{"cpu_s", "s"},          // host user+sys CPU time of one unit of work
	{"ops_per_s", "1/s"},    // ops completed per host second
	{"op_p50_us", "us"},     // median host time of one op
	{"op_tail_us", "us"},    // p90 host time of one op
	{"peak_rss_mib", "MiB"}, // peak resident memory of the run
	{"setup_s", "s"},        // median untimed preparation
}

// perLayer is what every traced run reports, named <layer>.<metric>. A layer
// a workload does not exercise reports 0.
var perLayer = []spec{
	{"workload.self_frac", "frac"},
	{"workload.ns_per_instr", "ns/instr"},
	{"trace.self_frac", "frac"},
	{"trace.ns_per_instr", "ns/instr"},
	{"trace.resident_mib", "MiB"},
	{"cache.self_frac", "frac"},
	{"cache.l2_accesses", "count"},
	{"cache.l2_misses", "count"},
	{"cache.ns_per_l2_access", "ns"},
	{"engine.self_frac", "frac"},
	{"engine.instructions_p1", "count"},
	{"engine.instructions_p2", "count"},
	{"engine.sim_cycles", "count"},
	{"engine.context_switches", "count"},
	{"engine.p1_ns_per_instr", "ns/instr"},
	{"engine.p2_ns_per_instr", "ns/instr"},
	{"engine.sim_mcycles_per_s", "Mcycles/s"},
	{"bloom.self_frac", "frac"},
	{"bloom.captures", "count"},
	{"bloom.saturations", "count"},
	{"kernel.self_frac", "frac"},
	{"monitor.self_frac", "frac"},
	{"monitor.invocations", "count"},
	{"monitor.busy_ms", "ms"},
	{"monitor.p50_us", "us"},
	{"alloc.self_frac", "frac"},
	{"alloc.calls", "count"},
	{"alloc.busy_ms", "ms"},
	{"alloc.p50_us", "us"},
	{"graph.self_frac", "frac"},
	{"graph.insert_p50_us", "us"},
	{"graph.remove_p50_us", "us"},
	{"graph.rebuilds", "count"},
	{"graph.compacts", "count"},
	{"experiments.self_frac", "frac"},
	{"experiments.tasks_phase1", "count"},
	{"experiments.tasks_candidate", "count"},
	{"experiments.phase1_busy_s", "s"},
	{"experiments.phase2_busy_s", "s"},
	{"experiments.idle_frac", "frac"},
	{"experiments.tail_s", "s"},
	{"experiments.steals", "count"},
	{"experiments.avg_improvement_pct", "%"},
	{"experiments.regret_pct", "%"},
	{"experiments.migrations_per_event", "ratio"},
	{"runtime.self_frac", "frac"},
	{"runtime.gc_cycles", "count"},
	{"runtime.alloc_mib", "MiB"},
	{"other.self_frac", "frac"},
	{"tracing_overhead_frac", "frac"},
}

var unitOf = func() map[string]string {
	m := map[string]string{}
	for _, s := range append(append([]spec(nil), endToEnd...), perLayer...) {
		m[s.name] = s.unit
	}
	return m
}()

func (o *outcome) set(name string, v float64) {
	unit, ok := unitOf[name]
	if !ok {
		panic(fmt.Sprintf("perfledger: metric %q is not declared", name))
	}
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// setFractions reports a folded profile's self-time share per layer.
func (o *outcome) setFractions(st selfTime) {
	for l, f := range st.fractions() {
		o.set(l+".self_frac", f)
	}
}

// complete checks that a run reports exactly the metric set its mode
// promises; a traced run's unexercised layers read 0.
func (o *outcome) complete(traced bool) error {
	want := endToEnd
	if traced {
		want = perLayer
		for _, s := range perLayer {
			if _, ok := o.metrics[s.name]; !ok {
				o.set(s.name, 0)
			}
		}
	}
	if len(o.metrics) != len(want) {
		return fmt.Errorf("run reports %d metrics, its mode declares %d", len(o.metrics), len(want))
	}
	for _, s := range want {
		if _, ok := o.metrics[s.name]; !ok {
			return fmt.Errorf("run does not report %s", s.name)
		}
	}
	return nil
}
