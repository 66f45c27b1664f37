package main

import (
	"strings"
	"testing"
)

var testHost = Host{CPU: "Test CPU", NProc: 2, GOMAXPROCS: 2, GOARCH: "amd64", GoVersion: "go1.24.0"}

func entry(points ...Point) Entry {
	return Entry{Label: "base", Host: testHost, Points: points}
}

func pt(layer, cse string, gated float64, sum string) Point {
	return Point{Layer: layer, Case: cse, P50: gated, Gated: gated, Checksum: sum}
}

// TestCompare drives the whole gate. want is a substring every violation
// must contain ("" = the comparison passes).
func TestCompare(t *testing.T) {
	sweep := pt("sweep", "fig10-quick", 5000, "b8d5734d27adcd5c")
	allocFast := pt("alloc", "repair P=64 k=4", 0.01, "5266ff386d250b25")
	allocSlow := pt("alloc", "sparse P=1024 k=64", 10, "33a48be909698705")
	coord := pt("coord", "workers=50 shards=64", 5, "")
	churnRebuild := pt("churn", "P=1024 rebuild", 12, "33a48be909698705")
	churnInsert := pt("churn", "P=1024 insert", 0.02, "7554a238993083c1")
	slower := func(p Point, f float64) Point { p.Gated *= f; return p }
	sum := func(p Point, s string) Point { p.Checksum = s; return p }
	otherHost := entry(sweep)
	otherHost.Host.CPU = "Other CPU"

	for _, tc := range []struct {
		name      string
		base, cur Entry
		want      string
		n         int
	}{
		{name: "identical", base: entry(sweep, allocSlow), cur: entry(sweep, allocSlow)},
		{name: "within tolerance", base: entry(sweep), cur: entry(slower(sweep, 1.1))},
		{name: "faster", base: entry(sweep), cur: entry(slower(sweep, 0.5))},
		{name: "checksum mismatch", base: entry(sweep), cur: entry(sum(sweep, "0000000000000000")), want: "checksum", n: 1},
		{name: "checksum mismatch under the floor", base: entry(allocFast), cur: entry(sum(allocFast, "x")), want: "checksum", n: 1},
		{name: "over tolerance", base: entry(sweep), cur: entry(slower(sweep, 1.2)), want: "REGRESSION", n: 1},
		{name: "over tolerance above the floor", base: entry(allocSlow), cur: entry(slower(allocSlow, 1.2)), want: "REGRESSION", n: 1},
		{name: "under the floor is not gated", base: entry(allocFast), cur: entry(slower(allocFast, 50))},
		{name: "churn rebuild is gated", base: entry(churnRebuild), cur: entry(slower(churnRebuild, 1.2)), want: "REGRESSION", n: 1},
		{name: "churn insert under the floor", base: entry(churnInsert), cur: entry(slower(churnInsert, 10))},
		{name: "coord never gated", base: entry(coord), cur: entry(slower(coord, 100))},
		{name: "missing baseline layer", base: entry(sweep), cur: entry(sweep, allocSlow), want: "no baseline point", n: 1},
		{name: "missing baseline case", base: entry(sweep, allocSlow), cur: entry(sweep, allocSlow, allocFast), want: "no baseline point", n: 1},
		{name: "baseline case not measured", base: entry(allocSlow, allocFast), cur: entry(allocSlow), want: "not measured", n: 1},
		{name: "unmeasured baseline layer is fine", base: entry(sweep, allocSlow), cur: entry(sweep)},
		{name: "host mismatch", base: otherHost, cur: entry(sweep), want: "host", n: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vs := compare(tc.base, tc.cur, 0.15)
			if len(vs) != tc.n {
				t.Fatalf("got %d violations %q, want %d", len(vs), vs, tc.n)
			}
			for _, v := range vs {
				if !strings.Contains(string(v), tc.want) {
					t.Errorf("violation %q does not mention %q", v, tc.want)
				}
			}
		})
	}
}

// TestBaselineForSameHost picks the newest entry with the measuring host's
// stamp and refuses when there is none.
func TestBaselineForSameHost(t *testing.T) {
	other := testHost
	other.NProc = 8
	rpt := Report{Entries: []Entry{
		{Label: "old", Host: testHost},
		{Label: "new", Host: testHost},
		{Label: "elsewhere", Host: other},
	}}
	e, err := baselineFor(rpt, testHost)
	if err != nil || e.Label != "new" {
		t.Fatalf("baselineFor = %q, %v; want the newest same-host entry \"new\"", e.Label, err)
	}
	third := testHost
	third.GOMAXPROCS = 1
	if _, err := baselineFor(rpt, third); err == nil {
		t.Fatal("baselineFor accepted a report with no entry from this host")
	}
}

func TestSelectLayers(t *testing.T) {
	got, err := selectLayers("churn, sweep")
	if err != nil || len(got) != 2 || got[0].name != "sweep" || got[1].name != "churn" {
		t.Fatalf("selectLayers = %v, %v; want sweep then churn", got, err)
	}
	if _, err := selectLayers("sweep,bogus"); err == nil {
		t.Fatal("selectLayers accepted an unknown layer")
	}
}

// TestReadReportRefusesOtherShapes keeps -out from rewriting an artifact of
// another shape (and dropping its fields) and -check from reading one.
func TestReadReportRefusesOtherShapes(t *testing.T) {
	if _, err := readReport("../../results/BENCH_2026-08-06.json"); err == nil {
		t.Fatal("readReport accepted the per-layer-fields artifact shape")
	}
}
