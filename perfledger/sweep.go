package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"symbiosched/internal/alloc"
	"symbiosched/internal/experiments"
	"symbiosched/internal/trace"
	"symbiosched/internal/workload"
)

// The two sweep workloads run the Fig10 two-phase sweep (phase-1 signature
// gathering and majority vote, then every candidate mapping to completion)
// under the weighted interference graph policy, over the six-profile SPEC
// pool (15 mixes of 4) at experiments.Quick() scale on GOMAXPROCS workers.
// sweep-synth feeds the simulator from the synthetic generators; sweep-trace
// replaces each profile by a compiled trace captured at set-up, so the
// generator layer drops out and trace replay takes its place.

// specPool spans every behaviour class of the SPEC profiles; it is the pool
// cmd/bench and bench_test.go time.
var specPool = []string{"mcf", "omnetpp", "libquantum", "hmmer", "povray", "gobmk"}

const (
	// fig10Seed is experiments.Quick().Seed; --seed n runs fig10Seed+n, so
	// seed 0 is the recorded Fig10 reference.
	fig10Seed = 0x5eed
	mixSize   = 4
	// minSweepReps keeps the reported medians meaningful when --seconds is
	// shorter than three sweeps.
	minSweepReps = 3
	// synthSetupReps repeats the synthetic set-up (pool build and warm-up
	// mix); traceSetupReps repeats the trace capture, compile, write and
	// load.
	synthSetupReps = 3
	traceSetupReps = 5
)

// Fig10 reference outcome at seed 0 (results/BENCH_*.json, every entry).
const (
	refAvgPct = 6.414
	refMaxPct = 48.57
)

// sweepBench is a prepared sweep workload.
type sweepBench struct {
	name         string
	cfg          experiments.Config
	pool         []workload.Profile
	fingerprints map[string]string // trace content fingerprints (sweep-trace)
	residentMiB  float64           // compiled trace bytes the pool maps (sweep-trace)
	setupS       float64
}

func sweepConfig(seed int64) experiments.Config {
	c := experiments.Quick()
	c.Seed = fig10Seed + uint64(seed)
	return c
}

func synthPool(names []string) ([]workload.Profile, error) {
	pool := make([]workload.Profile, 0, len(names))
	for _, n := range names {
		p, err := workload.ByName(n)
		if err != nil {
			return nil, err
		}
		pool = append(pool, p)
	}
	return pool, nil
}

func runSweepSynth(opt options) (*outcome, error) {
	b, err := prepareSynthSweep(opt, specPool)
	if err != nil {
		return nil, err
	}
	return b.run(opt)
}

// prepareSynthSweep builds the synthetic pool of the named profiles and
// warms up on its first mix. The pool build alone takes microseconds, too
// short to time steadily, so the set-up time includes the warm-up mix.
func prepareSynthSweep(opt options, names []string) (*sweepBench, error) {
	b := &sweepBench{name: opt.workload, cfg: sweepConfig(opt.seed)}
	setup, err := timedMedian(synthSetupReps, func() error {
		var err error
		if b.pool, err = synthPool(names); err != nil {
			return err
		}
		b.warmUp()
		return nil
	})
	b.setupS = setup
	return b, err
}

func runSweepTrace(opt options) (*outcome, error) {
	b, cleanup, err := prepareTraceSweep(opt, specPool)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	return b.run(opt)
}

// prepareTraceSweep captures the trace fixture under opt.workdir and
// returns the trace-driven sweep; cleanup removes the fixture.
func prepareTraceSweep(opt options, names []string) (*sweepBench, func(), error) {
	if err := os.MkdirAll(opt.workdir, 0o755); err != nil {
		return nil, nil, err
	}
	root, err := os.MkdirTemp(opt.workdir, "traces-")
	if err != nil {
		return nil, nil, err
	}
	cleanup := func() { os.RemoveAll(root) }
	cfg := sweepConfig(opt.seed)
	b := &sweepBench{name: opt.workload}
	rep := 0
	b.setupS, err = timedMedian(traceSetupReps, func() error {
		rep++
		var err error
		b.pool, b.fingerprints, b.residentMiB, err = captureTracePool(filepath.Join(root, fmt.Sprint(rep)), cfg, names)
		return err
	})
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	// Each trace holds exactly the Quick-scale run length of its synthetic
	// twin, so it replays at InstrDiv 1 and retires the same instructions.
	b.cfg = cfg
	b.cfg.InstrDiv = 1
	// Warm up once, untimed: every set-up rep maps a fresh pool, and warming
	// each would keep all their touched pages resident. The earlier reps'
	// pools are garbage by now; collecting them first keeps the warm-up's
	// heap growth, and so the run's peak memory, from depending on when the
	// collector would next have run.
	runtime.GC()
	b.warmUp()
	return b, cleanup, nil
}

// captureTracePool records each named profile's Quick-scale instruction
// stream (trace.Capture), compiles it (trace.Compile), writes it as a v2
// .symc file into dir (trace.WriteCompiled) and loads the directory as a
// pool (experiments.TracePoolFromDir), in the order of names. The pool must
// carry the fingerprints and instruction counts that were written.
func captureTracePool(dir string, cfg experiments.Config, names []string) ([]workload.Profile, map[string]string, float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, err
	}
	seeds := workload.NewRand(cfg.Seed)
	fps := make(map[string]string, len(names))
	instr := make(map[string]uint64, len(names))
	var bytesOnDisk int64
	for _, name := range names {
		p, err := workload.ByName(name)
		if err != nil {
			return nil, nil, 0, err
		}
		gen := p.NewThreads(1, seeds.Uint64(), uint64(cfg.MachineDiv))[0]
		n := p.ScaledInstructions(cfg.InstrDiv)
		var v1 bytes.Buffer
		if err := trace.Capture(gen, n, &v1); err != nil {
			return nil, nil, 0, fmt.Errorf("capture %s: %w", name, err)
		}
		ct, err := trace.Compile(&v1)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("compile %s: %w", name, err)
		}
		size, err := writeCompiled(filepath.Join(dir, name+trace.CompiledExt), ct)
		if err != nil {
			return nil, nil, 0, err
		}
		bytesOnDisk += size
		fps[name] = fmt.Sprintf("%016x", ct.Fingerprint())
		instr[name] = n
		// The capture buffers are garbage now; collecting them here keeps
		// the set-up's transient heap from setting the run's peak memory.
		runtime.GC()
	}
	loaded, err := experiments.TracePoolFromDir(dir)
	if err != nil {
		return nil, nil, 0, err
	}
	byName := make(map[string]workload.Profile, len(loaded))
	for _, p := range loaded {
		byName[p.Name] = p
	}
	pool := make([]workload.Profile, 0, len(names))
	for _, n := range names {
		p, ok := byName[n]
		switch {
		case !ok:
			return nil, nil, 0, fmt.Errorf("trace pool lacks %s", n)
		case p.Fingerprint != fps[n]:
			return nil, nil, 0, fmt.Errorf("trace %s: pool fingerprint %s, captured %s", n, p.Fingerprint, fps[n])
		case p.Instructions != instr[n]:
			return nil, nil, 0, fmt.Errorf("trace %s: %d instructions, captured %d", n, p.Instructions, instr[n])
		}
		pool = append(pool, p)
	}
	return pool, fps, float64(bytesOnDisk) / (1 << 20), nil
}

func writeCompiled(path string, ct *trace.CompiledTrace) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := trace.WriteCompiled(f, ct); err != nil {
		f.Close()
		return 0, fmt.Errorf("write %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("write %s: %w", path, err)
	}
	return st.Size(), nil
}

// mix returns the profiles of combination j, in pool order.
func (b *sweepBench) mix(combo []int) []workload.Profile {
	out := make([]workload.Profile, len(combo))
	for i, idx := range combo {
		out[i] = b.pool[idx]
	}
	return out
}

// warmUp runs the first mix once so the measured sweeps start with the
// simulation arenas and heap at their steady state; without it the first
// sweep of a process reads 10–20% slow. It runs on one worker: on two, its
// time depends on when the idle worker wakes to steal a candidate, and a
// timed set-up read 0.30 s or 0.45 s by that alone.
func (b *sweepBench) warmUp() {
	cfg := b.cfg
	cfg.Workers = 1
	m := b.mix(experiments.Combinations(len(b.pool), mixSize)[0])
	cfg.RunMix(m, alloc.WeightedInterferenceGraph{}, experiments.CandidatesFor(cfg, m), nil)
}

// sweepRun is one timed sweep.
type sweepRun struct {
	shard  experiments.Shard
	report experiments.ImprovementReport
	wall   float64 // s
	cpu    float64 // s, user+sys of the whole process
	digest string
}

// sweep runs the whole sweep once as a single shard; onTask (may be nil)
// observes every completed task.
func (b *sweepBench) sweep(onTask func(experiments.TaskInfo)) (sweepRun, error) {
	cfg := b.cfg
	cfg.OnTask = onTask
	c0, t0 := cpuSeconds(), time.Now()
	shard, err := cfg.SweepShard(b.pool, alloc.WeightedInterferenceGraph{}, mixSize, nil)
	wall, cpu := time.Since(t0).Seconds(), cpuSeconds()-c0
	if err != nil {
		return sweepRun{}, err
	}
	report, err := experiments.MergeShards([]experiments.Shard{shard})
	if err != nil {
		return sweepRun{}, err
	}
	return sweepRun{shard: shard, report: report, wall: wall, cpu: cpu, digest: outcomeDigest(shard.Outcomes)}, nil
}

func (b *sweepBench) run(opt options) (*outcome, error) {
	if opt.traced {
		return b.traced(opt)
	}
	out := &outcome{fingerprints: b.fingerprints}
	var (
		walls, cpus, rates []float64
		taskUS             []float64
		digests            []string
		mu                 sync.Mutex
		last               sweepRun
	)
	onTask := func(ti experiments.TaskInfo) {
		mu.Lock()
		taskUS = append(taskUS, micros(ti.Duration))
		mu.Unlock()
	}
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	for another(walls, minSweepReps, deadline) {
		before := len(taskUS)
		runtime.GC()
		r, err := b.sweep(onTask)
		if err != nil {
			return nil, err
		}
		walls = append(walls, r.wall)
		cpus = append(cpus, r.cpu)
		rates = append(rates, float64(len(taskUS)-before)/r.wall)
		digests = append(digests, r.digest)
		last = r
		fmt.Fprintf(os.Stderr, "perfledger: sweep %d: %.3fs wall, %.3fs cpu, digest %s\n", len(walls), r.wall, r.cpu, r.digest)
	}
	out.attempted = len(walls)
	out.digest, out.failed = agree(digests)
	b.check(out, last)
	out.set("wall_s", median(walls))
	out.set("cpu_s", median(cpus))
	out.set("ops_per_s", median(rates))
	out.set("op_p50_us", median(taskUS))
	out.set("op_tail_us", quantile(taskUS, tailQuantile))
	out.set("peak_rss_mib", peakRSSMiB())
	out.set("setup_s", b.setupS)
	return out, nil
}

// check validates one sweep's outcomes and records its decision quality.
func (b *sweepBench) check(out *outcome, r sweepRun) {
	rep := r.report
	out.quality = map[string]float64{
		"avg_improvement_pct": 100 * rep.Overall(),
		"max_improvement_pct": 100 * rep.MaxOverall(),
		"oracle_pct":          100 * rep.OracleOverall(),
		"regret_pct":          100 * (rep.OracleOverall() - rep.Overall()),
	}
	want := len(experiments.Combinations(len(b.pool), mixSize))
	if len(r.shard.Outcomes) != want {
		out.fail("%d mix outcomes, want %d", len(r.shard.Outcomes), want)
	}
	for j, o := range r.shard.Outcomes {
		if o.ChosenIdx < 0 || o.ChosenIdx >= len(o.Candidates) || !o.Candidates[o.ChosenIdx].Mapping.Equal(o.Chosen) {
			out.fail("mix %d: chosen mapping %v is not candidate %d", j, o.Chosen, o.ChosenIdx)
			continue
		}
		for i, c := range o.Candidates {
			if len(c.UserCycles) != len(o.Names) || c.WallCycles == 0 {
				out.fail("mix %d candidate %d: %d user times for %d processes, %d wall cycles", j, i, len(c.UserCycles), len(o.Names), c.WallCycles)
			}
			for _, u := range c.UserCycles {
				if u == 0 || u > c.WallCycles {
					out.fail("mix %d candidate %d: user time %d outside (0, %d]", j, i, u, c.WallCycles)
				}
			}
		}
	}
	if rep.Overall() > rep.OracleOverall() {
		out.fail("average improvement %.4f%% exceeds the oracle's %.4f%%", 100*rep.Overall(), 100*rep.OracleOverall())
	}
	if b.name == "sweep-synth" && b.cfg.Seed == fig10Seed && len(b.pool) == len(specPool) {
		avg, max := round(100*rep.Overall(), 3), round(100*rep.MaxOverall(), 2)
		if avg != refAvgPct || max != refMaxPct {
			out.fail("Fig10 reference: avg %.3f%% max %.2f%%, want %.3f%% and %.2f%%", avg, max, refAvgPct, refMaxPct)
		}
	}
}

func round(x float64, digits int) float64 {
	p := math.Pow(10, float64(digits))
	return math.Round(x*p) / p
}

// agree returns the most common digest and how many digests differ from it
// (ties go to the earliest); each differing rep is one failed operation.
func agree(digests []string) (string, int) {
	count := map[string]int{}
	best := ""
	for _, d := range digests {
		count[d]++
		if best == "" || count[d] > count[best] {
			best = d
		}
	}
	return best, len(digests) - count[best]
}

// outcomeDigest is an FNV-1a digest over every mix outcome: names, chosen
// mapping and index, and each candidate's mapping, per-process user cycles
// and wall cycles. Two sweeps agree on it only if every simulated outcome
// they report is identical.
func outcomeDigest(outcomes []experiments.MixOutcome) string {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	ints := func(xs []int) {
		word(uint64(len(xs)))
		for _, x := range xs {
			word(uint64(x))
		}
	}
	for _, o := range outcomes {
		word(uint64(len(o.Names)))
		for _, n := range o.Names {
			h.Write([]byte(n))
			h.Write([]byte{0})
		}
		ints(o.Chosen)
		word(uint64(o.ChosenIdx))
		word(uint64(len(o.Candidates)))
		for _, c := range o.Candidates {
			ints(c.Mapping)
			word(uint64(len(c.UserCycles)))
			for _, u := range c.UserCycles {
				word(u)
			}
			word(c.WallCycles)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
