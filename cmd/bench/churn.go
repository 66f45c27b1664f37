package main

import (
	"fmt"
	"time"

	"symbiosched/internal/alloc"
	"symbiosched/internal/experiments"
)

// The churn layer: per-event cost of the incremental arrival/departure path
// versus the full rebuild it replaces. One seeded Poisson campaign per P;
// every arrival, departure and aging refresh is timed through the driver's
// observer, which never feeds the report — the campaign checksum is a pure
// function of the seed. Each P yields two points: "insert" (arrival p50,
// checksummed by the campaign) and "rebuild" (median of -reps fresh top-m
// builds plus multilevel partitions, checksummed by their decision).
//
// The derived crossover is how many structural events must land in one
// monitor quantum before rebuilding once is cheaper than absorbing each
// event incrementally.

// churnPs is the population sweep; k = P/16 matches the allocator layer.
var churnPs = []int{256, 1024}

// churnQuanta is the campaign length in monitor quanta.
const churnQuanta = 200

func runChurnBench(reps int) []Point {
	var points []Point
	for _, p := range churnPs {
		k := p / 16
		byKind := map[string][]float64{}
		rep := experiments.RunChurn(experiments.ChurnConfig{
			Mode:        "poisson",
			Seed:        42,
			P0:          p,
			Cores:       k,
			Quanta:      churnQuanta,
			ArrivalRate: 2,
			MeanLife:    float64(p),       // population hovers near P0
			RefreshFrac: 0.5 / float64(p), // one thread per quantum: per-refresh timing
			FragLimit:   0.6,
			OnEvent: func(kind string, d time.Duration) {
				byKind[kind] = append(byKind[kind], ms(d))
			},
		})

		views := experiments.SynthAllocViews(p, k)
		rebuilds := make([]float64, 0, reps)
		var groups [][]int
		for i := 0; i < reps; i++ {
			start := time.Now()
			groups = alloc.SparseInterferenceGraph(views).PartitionK(k)
			rebuilds = append(rebuilds, ms(time.Since(start)))
		}
		rb := Point{Case: fmt.Sprintf("P=%d rebuild", p), Checksum: mappingChecksum(groupsMapping(groups, p).Canonical())}
		rb.P50, rb.P99 = percentiles(rebuilds)
		rb.Gated = rb.P50

		ins := Point{Case: fmt.Sprintf("P=%d insert", p), Checksum: rep.Checksum}
		ins.P50, ins.P99 = percentiles(byKind["arrive"])
		ins.Gated = ins.P50
		removeP50, _ := percentiles(byKind["depart"])
		ageP50, _ := percentiles(byKind["refresh"])
		ins.Info = map[string]float64{
			"arrivals":      float64(rep.Arrivals),
			"departures":    float64(rep.Departures),
			"rebuilds":      float64(rep.Rebuilds),
			"remove_p50_ms": removeP50,
			"age_p50_ms":    ageP50,
		}
		if ev := rep.Arrivals + rep.Departures; ev > 0 {
			ins.Info["migrations_per_event"] = float64(rep.Migrations) / float64(ev)
		}
		if event := max(ins.P50, removeP50); event > 0 { // the slower event kind
			ins.Info["crossover_events_per_quantum"] = rb.P50 / event
		}
		points = append(points, ins, rb)
	}
	return points
}
