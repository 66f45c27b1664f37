// Command perfledger is the repository benchmark: it drives three named
// workloads through the public entry points of internal/experiments, prints
// every metric by name with its unit, and checks that the outputs are
// correct. See README.md for the workloads, the metrics and how to read them.
//
//	perfledger --workload sweep-synth --seed 1 --seconds 38 --trace 0
//	perfledger compare <baseline-dir> [<candidate-dir>]
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it is the
// run record (host stamp, seed, outcome digest) that compare reads.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the run's provenance line: where and on what it ran, and the
// deterministic outcome it produced. compare refuses to mix hosts.
type record struct {
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Trace        int                `json:"trace"`
	Host         host               `json:"host"`
	Digest       string             `json:"digest"`
	Fingerprints map[string]string  `json:"fingerprints,omitempty"`
	Quality      map[string]float64 `json:"quality,omitempty"`
	Problems     []string           `json:"problems,omitempty"`
}

// options are the benchmark's command-line arguments.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	workdir  string
}

// outcome is what one workload run produces before printing.
type outcome struct {
	metrics      map[string]metric
	attempted    int
	failed       int
	digest       string
	fingerprints map[string]string
	quality      map[string]float64
	problems     []string
}

// fail records a correctness problem; every problem makes the run incorrect.
func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// workloads runs each workload, untraced (end-to-end metrics) or traced
// (per-layer metrics).
var workloads = map[string]func(opt options) (*outcome, error){
	"sweep-synth": runSweepSynth,
	"sweep-trace": runSweepTrace,
	"churn-p1024": runChurn,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfledger:", err)
			os.Exit(1)
		}
		return
	}
	opt, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfledger:", err)
		os.Exit(2)
	}
	out, err := workloads[opt.workload](opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfledger:", err)
		os.Exit(1)
	}
	if err := emit(opt, out); err != nil {
		fmt.Fprintln(os.Stderr, "perfledger:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfledger", flag.ContinueOnError)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload name: "+workloadNames())
	fs.Int64Var(&opt.seed, "seed", 0, "input seed (0 is the Fig10 reference configuration)")
	fs.Float64Var(&opt.seconds, "seconds", 38, "measurement time per run")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	fs.StringVar(&opt.workdir, "workdir", ".bench_build", "scratch directory for trace fixtures and span files")
	if err := fs.Parse(args); err != nil {
		return opt, err
	}
	if fs.NArg() > 0 {
		return opt, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloads[opt.workload]; !ok {
		return opt, fmt.Errorf("unknown workload %q (want one of %s)", opt.workload, workloadNames())
	}
	if opt.seed < 0 {
		return opt, errors.New("seed must be non-negative")
	}
	if opt.seconds <= 0 {
		return opt, errors.New("seconds must be positive")
	}
	if trace != 0 && trace != 1 {
		return opt, fmt.Errorf("trace must be 0 or 1, got %d", trace)
	}
	opt.traced = trace == 1
	return opt, nil
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// emit prints the run record and then the result object as the last line.
func emit(opt options, out *outcome) error {
	if err := out.complete(opt.traced); err != nil {
		return err
	}
	trace := 0
	if opt.traced {
		trace = 1
	}
	rec := record{
		Workload:     opt.workload,
		Seed:         opt.seed,
		Trace:        trace,
		Host:         hostStamp(),
		Digest:       out.digest,
		Fingerprints: out.fingerprints,
		Quality:      out.quality,
		Problems:     out.problems,
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfledger: incorrect:", p)
	}
	res := result{
		Correct:   len(out.problems) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	recLine, err := json.Marshal(map[string]record{"record": rec})
	if err != nil {
		return fmt.Errorf("encode record: %w", err)
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Println(string(recLine))
	fmt.Println(string(resLine))
	return nil
}
