// Command bench is the reproducible performance harness. It measures a
// registry of layers — the Figure 10 sweep (the headline end-to-end number,
// the same work as BenchmarkFigure10 in bench_test.go), the same sweep at
// GOMAXPROCS=1, and the allocator, signature, trace I/O, coordinator and
// churn layers — and records every measured case as one Point in a JSON
// artifact, so before/after comparisons survive in the repository.
//
// Every point carries a determinism checksum of what it computed: two
// builds whose checksums differ did not run the same experiment, and their
// times must not be compared. Each layer gates one statistic (see layers);
// baseline points whose statistic is below the layer's floor are too fast
// to time reliably on shared hosts and are checked by checksum only.
//
// Usage:
//
//	go run ./cmd/bench -layers sweep,alloc -reps 3 -label after -out results/BENCH_<date>.json
//	go run ./cmd/bench -layers sweep,alloc,sig,trace,churn -check results/BENCH_<date>.json
//
// -out appends the entry to the file (creating it); without -out nothing is
// written. -check compares against the newest entry of the file recorded on
// the same host (CPU model, nproc, GOMAXPROCS, GOARCH, Go version) and exits
// non-zero on any violation: a checksum mismatch, a gated statistic more
// than -tolerance slower, a measured case the baseline lacks, or no
// same-host baseline at all.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"symbiosched/internal/alloc"
	"symbiosched/internal/experiments"
	"symbiosched/internal/workload"
)

// Report is the on-disk artifact: one file, many labelled entries.
type Report struct {
	Protocol string  `json:"protocol"`
	Entries  []Entry `json:"entries"`
}

// Entry is one measured build on one host.
type Entry struct {
	Label  string  `json:"label"`
	Date   string  `json:"date"`
	Note   string  `json:"note,omitempty"`
	Host   Host    `json:"host"`
	Reps   int     `json:"reps"`
	Points []Point `json:"points"`
}

// Host identifies the machine and toolchain an entry was measured on. Times
// are only compared between entries whose stamps are equal.
type Host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
}

// Point is one measured case of one layer. Times are milliseconds; Gated
// holds the layer's gated statistic. Info carries derived figures (speedups,
// crossovers, file sizes, migrations per event) that are never gated.
type Point struct {
	Layer    string             `json:"layer"`
	Case     string             `json:"case"`
	P50      float64            `json:"p50_ms"`
	P99      float64            `json:"p99_ms"`
	Gated    float64            `json:"gated_ms"`
	Checksum string             `json:"checksum"`
	Info     map[string]float64 `json:"info,omitempty"`
}

// layer is one registry entry: its name, what Gated holds, the floor (ms)
// below which a baseline point is checked by checksum only, and the
// measurement of its fixed cases at a given sample count.
type layer struct {
	name  string
	stat  string
	floor float64
	run   func(reps int) []Point
}

var layers = []layer{
	{"sweep", "min wall", 0, func(reps int) []Point { return runSweep(reps, false) }},
	{"sweep-mp1", "min wall at GOMAXPROCS=1", 0, func(reps int) []Point { return runSweep(reps, true) }},
	{"alloc", "p50", 1, runAllocBench},
	{"sig", "monitor-quantum min", 1, runSigBench},
	{"trace", "open p50", 10, runTraceBench},
	// Loopback HTTP and fsync latency vary too much across hosts for any
	// useful tolerance, so coord is recorded but never gated.
	{"coord", "lease p50", math.Inf(1), runCoordBench},
	{"churn", "insert p50 or rebuild median", 1, runChurnBench},
}

// mixSize is the Figure 10 mix size: every 4-subset of the 6-profile pool.
const mixSize = 4

func main() {
	names := make([]string, len(layers))
	for i, l := range layers {
		names[i] = l.name
	}
	layerList := flag.String("layers", "sweep", "comma-separated layers to measure: "+strings.Join(names, ","))
	reps := flag.Int("reps", 3, "samples per case, in every layer")
	label := flag.String("label", "HEAD", "entry label, e.g. a commit id")
	note := flag.String("note", "", "free-form provenance note stored with the entry")
	out := flag.String("out", "", "JSON artifact to append the entry to (nothing is written without it)")
	check := flag.String("check", "", "baseline JSON: compare against its newest same-host entry and exit non-zero on any violation")
	tolerance := flag.Float64("tolerance", 0.15, "allowed fractional slowdown of a gated statistic in -check mode")
	flag.Parse()
	if *reps < 1 {
		fatal(fmt.Errorf("-reps %d: need at least one sample", *reps))
	}
	selected, err := selectLayers(*layerList)
	if err != nil {
		fatal(err)
	}

	e := Entry{
		Label: *label,
		Date:  time.Now().UTC().Format(time.RFC3339),
		Note:  *note,
		Host:  hostStamp(),
		Reps:  *reps,
	}
	var base Entry
	if *check != "" { // refuse before measuring, not after
		rpt, err := readReport(*check)
		if err != nil {
			fatal(err)
		}
		if base, err = baselineFor(rpt, e.Host); err != nil {
			fatal(fmt.Errorf("%s: %w", *check, err))
		}
	}
	for _, l := range selected {
		for _, p := range l.run(*reps) {
			p.Layer = l.name
			fmt.Println(p)
			e.Points = append(e.Points, p)
		}
	}
	if err := sameSweep(e.Points); err != nil {
		fatal(err)
	}

	if *check != "" {
		if vs := compare(base, e, *tolerance); len(vs) > 0 {
			for _, v := range vs {
				fmt.Fprintln(os.Stderr, "bench:", v)
			}
			os.Exit(1)
		}
		fmt.Printf("bench: ok: %d points match baseline %q (checksums identical, gated statistics within %.0f%%)\n",
			len(e.Points), base.Label, 100**tolerance)
	}
	if *out != "" {
		rpt, err := readReport(*out)
		if err != nil && !os.IsNotExist(err) {
			fatal(err)
		}
		rpt.Protocol = "each layer runs its fixed cases -reps times in one process; p50/p99/gated are milliseconds; compare only entries with equal host stamps and checksums"
		rpt.Entries = append(rpt.Entries, e)
		buf, err := json.MarshalIndent(rpt, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("%s: appended %q (%d points)\n", *out, e.Label, len(e.Points))
	}
}

// selectLayers resolves a comma-separated list against the registry,
// keeping registry order.
func selectLayers(list string) ([]layer, error) {
	want := map[string]bool{}
	for _, n := range strings.Split(list, ",") {
		if n = strings.TrimSpace(n); n != "" {
			want[n] = true
		}
	}
	var out []layer
	for _, l := range layers {
		if want[l.name] {
			out = append(out, l)
			delete(want, l.name)
		}
	}
	for n := range want {
		return nil, fmt.Errorf("-layers: unknown layer %q", n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-layers: no layer selected")
	}
	return out, nil
}

func layerNamed(name string) layer {
	for _, l := range layers {
		if l.name == name {
			return l
		}
	}
	return layer{}
}

type violation string

// compare is the whole gate: cur must come from base's host, every measured
// point must have a baseline counterpart with an identical checksum, every
// baseline case of a measured layer must have been measured, and no gated
// statistic at or above its layer's floor may be more than tol slower.
func compare(base, cur Entry, tol float64) []violation {
	if base.Host != cur.Host {
		return []violation{violation(fmt.Sprintf("host %+v differs from baseline %q's %+v: record a new baseline on this host",
			cur.Host, base.Label, base.Host))}
	}
	type key struct{ layer, cse string }
	ref := map[key]Point{}
	for _, p := range base.Points {
		ref[key{p.Layer, p.Case}] = p
	}
	var vs []violation
	bad := func(format string, a ...any) { vs = append(vs, violation(fmt.Sprintf(format, a...))) }
	measured := map[key]bool{}
	layerMeasured := map[string]bool{}
	for _, p := range cur.Points {
		measured[key{p.Layer, p.Case}] = true
		layerMeasured[p.Layer] = true
		r, ok := ref[key{p.Layer, p.Case}]
		switch {
		case !ok:
			bad("%s %s: no baseline point in %q: record a new baseline", p.Layer, p.Case, base.Label)
		case r.Checksum != p.Checksum:
			bad("%s %s: checksum %s, baseline %s: the computation changed, record a new baseline before gating on time",
				p.Layer, p.Case, p.Checksum, r.Checksum)
		case r.Gated >= layerNamed(p.Layer).floor && p.Gated > r.Gated*(1+tol):
			bad("%s %s: REGRESSION: %s %.3fms vs baseline %.3fms (%+.1f%%, tolerance %.0f%%)",
				p.Layer, p.Case, layerNamed(p.Layer).stat, p.Gated, r.Gated, 100*(p.Gated/r.Gated-1), 100*tol)
		}
	}
	for _, r := range base.Points {
		if layerMeasured[r.Layer] && !measured[key{r.Layer, r.Case}] {
			bad("%s %s: baseline case was not measured", r.Layer, r.Case)
		}
	}
	return vs
}

// baselineFor returns the newest entry recorded on host h.
func baselineFor(rpt Report, h Host) (Entry, error) {
	for i := len(rpt.Entries) - 1; i >= 0; i-- {
		if rpt.Entries[i].Host == h {
			return rpt.Entries[i], nil
		}
	}
	return Entry{}, fmt.Errorf("no entry was recorded on this host (%+v): record a new baseline with -out", h)
}

// sameSweep checks that the native and GOMAXPROCS=1 sweeps, when both ran,
// simulated identical outcomes: the sweep is deterministic regardless of
// parallelism, so a mismatch is a concurrency bug.
func sameSweep(points []Point) error {
	sums := map[string]string{}
	for _, p := range points {
		if p.Layer == "sweep" || p.Layer == "sweep-mp1" {
			sums[p.Layer] = p.Checksum
		}
	}
	if len(sums) == 2 && sums["sweep"] != sums["sweep-mp1"] {
		return fmt.Errorf("GOMAXPROCS=1 sweep diverged from the native run: digest %s vs %s", sums["sweep-mp1"], sums["sweep"])
	}
	return nil
}

// runSweep times the Figure 10 sweep reps times, each rep run as one
// SweepShard merged by MergeShards so the shard protocol is exercised end to
// end. The checksum is the digest of every simulated outcome; with mp1 the
// reps run pinned to GOMAXPROCS=1.
func runSweep(reps int, mp1 bool) []Point {
	if mp1 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	cfg := experiments.Quick()
	// The bench pool of bench_test.go: six SPEC profiles spanning every
	// behaviour class.
	var pool []workload.Profile
	for _, n := range []string{"mcf", "omnetpp", "libquantum", "hmmer", "povray", "gobmk"} {
		p, err := workload.ByName(n)
		if err != nil {
			fatal(err)
		}
		pool = append(pool, p)
	}
	pt := Point{Case: "fig10-quick"}
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		s, err := cfg.SweepShard(pool, alloc.WeightedInterferenceGraph{}, mixSize, nil)
		if err != nil {
			fatal(err)
		}
		rep, err := experiments.MergeShards([]experiments.Shard{s})
		if err != nil {
			fatal(err)
		}
		times = append(times, ms(time.Since(start)))
		sum := experiments.OutcomeDigest(s.Outcomes)
		if i > 0 && sum != pt.Checksum {
			fatal(fmt.Errorf("sweep rep %d: digest %s, rep 1 %s: the sweep is not deterministic", i+1, sum, pt.Checksum))
		}
		pt.Checksum = sum
		pt.Info = map[string]float64{
			"avg_improvement_pct": 100 * rep.Overall(),
			"max_improvement_pct": 100 * rep.MaxOverall(),
			"mixes":               float64(len(s.Outcomes)),
		}
	}
	pt.P50, pt.P99 = percentiles(times)
	pt.Gated = times[0] // sorted by percentiles: the minimum
	return []Point{pt}
}

// String renders a point as one result line.
func (p Point) String() string {
	keys := make([]string, 0, len(p.Info))
	for k := range p.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "%-9s %-22s p50 %10.3fms p99 %10.3fms gated %10.3fms %16s", p.Layer, p.Case, p.P50, p.P99, p.Gated, p.Checksum)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%.4g", k, p.Info[k])
	}
	return b.String()
}

func hostStamp() Host {
	return Host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
	}
}

// cpuModel returns the kernel's name for the processor, or "unknown" where
// /proc/cpuinfo is absent or carries no model name.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// readReport loads an artifact in the current shape; files in any other
// shape (unknown fields) are refused rather than silently rewritten.
func readReport(path string) (Report, error) {
	var rpt Report
	f, err := os.Open(path)
	if err != nil {
		return rpt, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rpt); err != nil {
		return rpt, fmt.Errorf("%s is not a bench report in the current shape: %w", path, err)
	}
	return rpt, nil
}

// percentiles sorts times in place and returns its p50 and p99.
func percentiles(times []float64) (p50, p99 float64) {
	if len(times) == 0 {
		return 0, 0
	}
	sort.Float64s(times)
	i99 := (99*len(times) + 99) / 100 // ceil(0.99n), 1-based
	if i99 > len(times) {
		i99 = len(times)
	}
	return times[len(times)/2], times[i99-1]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// mappingChecksum hashes a canonical mapping: the decision checksum of the
// allocator, signature and churn layers.
func mappingChecksum(m alloc.Mapping) string {
	h := fnv.New64a()
	var b [8]byte
	for _, c := range m {
		for i := range b {
			b[i] = byte(c >> (8 * i))
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
