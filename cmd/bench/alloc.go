package main

import (
	"fmt"
	"time"

	"symbiosched/internal/alloc"
	"symbiosched/internal/experiments"
	"symbiosched/internal/graph"
	"symbiosched/internal/kernel"
)

// The allocator layer: how long one allocation decision takes as the thread
// count grows. Three paths per P:
//
//   - dense:  the pre-sparsification baseline (n×n matrix + recursive
//     bisection), forced via AllocateDense. Scales ~n⁴, so it is measured
//     only up to allocDenseMax.
//   - sparse: the top-m sparse build + multilevel partition the policies use
//     beyond the 64-thread threshold.
//   - repair: the incremental path — 8 signature deltas applied with
//     UpdateWeight, then RepairPartition. The steady-state per-quantum cost
//     once a partition exists.
//
// Every sample replays the identical decision, so the checksum (an FNV hash
// of the canonical decision) is invariant to -reps.

// allocPs is the P-sweep; k = P/16 cores keeps the per-core load constant.
var allocPs = []int{64, 256, 1024, 4096}

// allocDenseMax is the largest P at which the dense baseline is measured:
// P=1024 costs minutes per invocation.
const allocDenseMax = 256

func runAllocBench(reps int) []Point {
	var points []Point
	for _, p := range allocPs {
		k := p / 16
		views := experiments.SynthAllocViews(p, k)
		if p <= allocDenseMax {
			points = append(points, measureAlloc("dense", p, k, reps, func() (alloc.Mapping, float64) {
				return alloc.WeightedInterferenceGraph{}.AllocateDense(views, k), 0
			}))
		}
		points = append(points, measureAlloc("sparse", p, k, reps, func() (alloc.Mapping, float64) {
			s := alloc.SparseInterferenceGraph(views)
			m := groupsMapping(s.PartitionK(k), p)
			assign := make([]int32, p)
			for i, c := range m {
				assign[i] = int32(c)
			}
			return m, s.CutK(assign)
		}))
		points = append(points, measureRepair(p, k, reps, views))
	}
	return points
}

// groupsMapping turns a k-way partition of p threads into a mapping.
func groupsMapping(groups [][]int, p int) alloc.Mapping {
	m := make(alloc.Mapping, p)
	for core, grp := range groups {
		for _, t := range grp {
			m[t] = core
		}
	}
	return m
}

// measureAlloc times fn over n invocations and hashes its decision.
func measureAlloc(path string, p, k, n int, fn func() (alloc.Mapping, float64)) Point {
	times := make([]float64, 0, n)
	var m alloc.Mapping
	var cut float64
	for i := 0; i < n; i++ {
		start := time.Now()
		m, cut = fn()
		times = append(times, ms(time.Since(start)))
	}
	return allocPoint(path, p, k, times, mappingChecksum(m.Canonical()), cut)
}

// measureRepair times the incremental path: per invocation, a fresh graph
// and partition (untimed), then 8 weight deltas + RepairPartition.
func measureRepair(p, k, n int, views []kernel.View) Point {
	times := make([]float64, 0, n)
	var pt *graph.Partition
	part := graph.NewPartitioner()
	touched := make([]int, 8)
	for i := 0; i < n; i++ {
		s := alloc.SparseInterferenceGraph(views)
		pt = s.NewPartition(k)
		start := time.Now()
		for t := range touched {
			v := (131 + t*17) % p
			touched[t] = v
			cols, wts := s.Row(v)
			if len(cols) > 0 {
				e := t % len(cols)
				pt.UpdateWeight(s, v, int(cols[e]), wts[e]*1.5+0.1)
			}
		}
		part.Repair(s, pt, touched)
		times = append(times, ms(time.Since(start)))
	}
	m := make(alloc.Mapping, p)
	for i, c := range pt.Assign() {
		m[i] = int(c)
	}
	return allocPoint("repair", p, k, times, mappingChecksum(m.Canonical()), pt.Cut())
}

func allocPoint(path string, p, k int, times []float64, sum string, cut float64) Point {
	pt := Point{Case: fmt.Sprintf("%s P=%d k=%d", path, p, k), Checksum: sum}
	pt.P50, pt.P99 = percentiles(times)
	pt.Gated = pt.P50
	if cut != 0 {
		pt.Info = map[string]float64{"cut_weight": cut}
	}
	return pt
}
