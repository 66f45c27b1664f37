package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// compare summarises recorded runs: each file in a directory is the
// standard output of one run. With one directory it prints every metric's
// median and quartile spread per workload; with two it also compares the
// second set's medians against the first's, within the bounds in
// BENCHMARK.json. Runs from different hosts are never compared: host time
// from one machine says nothing about another, so a mismatch is an error
// that asks for a re-baseline.

// recorded is one parsed run.
type recorded struct {
	file   string
	rec    record
	result result
}

// benchSpec is the part of BENCHMARK.json compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func compareMain(args []string) error {
	if len(args) < 1 || len(args) > 2 {
		return errors.New("usage: perfledger compare <baseline-dir> [<candidate-dir>]")
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("compare runs from the repository root: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	sets := make([][]recorded, len(args))
	for i, dir := range args {
		if sets[i], err = loadRuns(dir); err != nil {
			return err
		}
	}
	if err := sameHost(sets); err != nil {
		return err
	}
	report, bad := compareSets(spec, sets)
	fmt.Print(report)
	if bad {
		return errors.New("comparison failed (see above)")
	}
	return nil
}

// loadRuns parses every regular file in dir as one run's output.
func loadRuns(dir string) ([]recorded, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var runs []recorded
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		r, err := parseRun(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s holds no recorded runs", dir)
	}
	return runs, nil
}

// parseRun reads the record line and the final result line of one run.
func parseRun(path string) (recorded, error) {
	f, err := os.Open(path)
	if err != nil {
		return recorded{}, err
	}
	defer f.Close()
	r := recorded{file: path}
	var last string
	haveRec := false
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		last = line
		if strings.HasPrefix(line, `{"record":`) {
			var w map[string]record
			if err := json.Unmarshal([]byte(line), &w); err != nil {
				return r, fmt.Errorf("%s: record: %w", path, err)
			}
			r.rec, haveRec = w["record"], true
		}
	}
	if err := sc.Err(); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if !haveRec {
		return r, fmt.Errorf("%s: no run record (is it a perfledger run's output?)", path)
	}
	if err := json.Unmarshal([]byte(last), &r.result); err != nil {
		return r, fmt.Errorf("%s: result line: %w", path, err)
	}
	return r, nil
}

// sameHost refuses any mix of host stamps across all runs of all sets.
func sameHost(sets [][]recorded) error {
	ref := sets[0][0]
	for _, set := range sets {
		for _, r := range set {
			if r.rec.Host != ref.rec.Host {
				return fmt.Errorf("host mismatch: %s was measured on %+v but %s on %+v; "+
					"host time does not compare across machines or toolchains, so re-baseline: "+
					"measure both sets on one host", ref.file, ref.rec.Host, r.file, r.rec.Host)
			}
		}
	}
	return nil
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), which the acceptance check uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// compareSets renders the per-workload summary and reports whether any
// check failed: an incorrect run, a spread wider than its bound, or (with
// two sets) a median that worsened by more than its bound.
func compareSets(spec benchSpec, sets [][]recorded) (string, bool) {
	var b strings.Builder
	bad := false
	h := sets[0][0].rec.Host
	fmt.Fprintf(&b, "host: %s, nproc %d, GOMAXPROCS %d, %s, %s\n", h.CPU, h.NProc, h.GOMAXPROCS, h.GOARCH, h.GoVersion)
	type key struct {
		workload string
		trace    int
	}
	groups := make([]map[key][]recorded, len(sets))
	var keys []key
	seen := map[key]bool{}
	for i, set := range sets {
		groups[i] = map[key][]recorded{}
		for _, r := range set {
			k := key{r.rec.Workload, r.rec.Trace}
			groups[i][k] = append(groups[i][k], r)
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
			if !r.result.Correct || r.result.Failed > 0 {
				fmt.Fprintf(&b, "INCORRECT: %s (%d of %d operations failed; %v)\n", r.file, r.result.Failed, r.result.Attempted, r.rec.Problems)
				bad = true
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].trace < keys[j].trace
	})
	bounds := map[string]int{}
	for i, m := range spec.EndToEnd {
		bounds[m.Name] = i
	}
	for _, k := range keys {
		fmt.Fprintf(&b, "\n%s (trace %d)\n", k.workload, k.trace)
		names := map[string]bool{}
		for i := range sets {
			for _, r := range groups[i][k] {
				for n := range r.result.Metrics {
					names[n] = true
				}
			}
		}
		sorted := make([]string, 0, len(names))
		for n := range names {
			sorted = append(sorted, n)
		}
		sort.Strings(sorted)
		for _, name := range sorted {
			line := fmt.Sprintf("  %-34s", name)
			var meds []float64
			for i := range sets {
				var xs []float64
				for _, r := range groups[i][k] {
					if m, ok := r.result.Metrics[name]; ok {
						xs = append(xs, m.Value)
					}
				}
				q1, med, q3 := quartiles(xs)
				spread := ratio(q3-q1, med)
				line += fmt.Sprintf(" | n=%-2d median %-12.6g spread %6.2f%%", len(xs), med, 100*spread)
				meds = append(meds, med)
				if idx, ok := bounds[name]; ok && k.trace == 0 && name != "setup_s" && spread > spec.EndToEnd[idx].Bound {
					line += " UNSTEADY"
					bad = true
				}
			}
			if idx, ok := bounds[name]; ok && k.trace == 0 && len(meds) == 2 {
				m := spec.EndToEnd[idx]
				worse := ratio(meds[1]-meds[0], meds[0])
				if m.Better == "higher" {
					worse = -worse
				}
				line += fmt.Sprintf(" | worse by %+.2f%% (bound %.0f%%)", 100*worse, 100*m.Bound)
				if worse > m.Bound {
					line += " REGRESSED"
					bad = true
				}
			}
			b.WriteString(line + "\n")
		}
	}
	return b.String(), bad
}
