package main

import (
	"fmt"

	"symbiosched/internal/coordctl"
)

// The coordinator layer: the load-smoke harness from internal/coordctl
// drives one journaled daemon with a fleet of concurrent fake workers over
// real HTTP and reports lease round-trip latency and throughput. Shards are
// fabricated (header-valid, physics-free), so the measured path is the
// coordinator itself — mutex, lease table, validation, journal fsync. The
// harness reconciles client accepts, server counters and journal records
// before it reports and fails the run otherwise; the point has no checksum
// of its own and is never gated (see layers). One fleet run per
// invocation: its lease round trips are the samples, so -reps does not
// apply.

const (
	coordWorkers = 50
	coordShards  = 64
)

func runCoordBench(int) []Point {
	res, err := coordctl.LoadSmoke(coordctl.LoadSmokeOptions{Workers: coordWorkers, Shards: coordShards})
	if err != nil {
		fatal(fmt.Errorf("coordinator bench: %w", err))
	}
	return []Point{{
		Case:  fmt.Sprintf("workers=%d shards=%d", res.Workers, res.Shards),
		P50:   res.LeaseP50Micros / 1e3,
		P99:   res.LeaseP99Micros / 1e3,
		Gated: res.LeaseP50Micros / 1e3,
		Info: map[string]float64{
			"leases_per_s":  res.LeasesPerSec,
			"submit_p50_ms": res.SubmitP50Micros / 1e3,
			"submit_p99_ms": res.SubmitP99Micros / 1e3,
			"journal_bytes": float64(res.JournalBytes),
		},
	}}
}
