package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"symbiosched/internal/alloc"
	"symbiosched/internal/bloom"
	"symbiosched/internal/engine"
	"symbiosched/internal/experiments"
	"symbiosched/internal/kernel"
	"symbiosched/internal/monitor"
	"symbiosched/internal/workload"
)

// The traced run. End-to-end metrics are always taken untraced; a traced
// run measures one untraced unit of work for reference, then the same unit
// under a CPU profile (self time per layer) with spans recorded at the
// public boundaries, and reports the difference as tracing overhead. On the
// sweeps a mirror then re-runs every mix through public calls with timing
// wrappers around engine.Machine.Run, monitor.Monitor.Hook and the
// allocation policy, and must reproduce the sweep's chosen mappings and
// every candidate's cycle counts exactly — so the boundary timings and the
// deterministic per-layer counts describe the program that was profiled.

// span is one timed interval; Parent is the enclosing span's ID (0 for a
// root). Times are nanoseconds since the recorder started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records [start, end] under parent and returns the new span's ID.
func (r *recorder) add(parent int64, name string, start, end time.Time) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
	return id
}

// reserve allocates an ID for a span whose end is not known yet; finish
// fills it in. Children can then name it as their parent while it runs.
func (r *recorder) reserve(parent int64, name string, start time.Time) int64 {
	return r.add(parent, name, start, start)
}

func (r *recorder) finish(id int64, end time.Time) {
	r.mu.Lock()
	r.spans[id-1].End = end.Sub(r.t0).Nanoseconds()
	r.mu.Unlock()
}

// durations returns the lengths of every span with the given name.
func (r *recorder) durations(name string) []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// write stores the spans as JSON lines in dir and returns the file's path.
func (r *recorder) write(dir, base string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, base+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// profiled runs fn under an in-process CPU profile and folds the profile by
// layer, reporting the heap activity fn caused alongside.
func profiled(fn func() error) (selfTime, runtime.MemStats, runtime.MemStats, error) {
	var before, after runtime.MemStats
	var buf bytes.Buffer
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return selfTime{}, before, after, fmt.Errorf("start profile: %w", err)
	}
	err := fn()
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&after)
	if err != nil {
		return selfTime{}, before, after, err
	}
	st, err := foldProfile(buf.Bytes())
	return st, before, after, err
}

func durSum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func durMedianMicros(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = micros(d)
	}
	return median(xs)
}

// traced is the per-layer measurement of a sweep workload.
func (b *sweepBench) traced(opt options) (*outcome, error) {
	out := &outcome{fingerprints: b.fingerprints}
	plain, err := b.sweep(nil)
	if err != nil {
		return nil, err
	}

	rec := newRecorder()
	var (
		mu       sync.Mutex
		tasks    []experiments.TaskInfo
		lastEnd  = map[int]time.Time{}
		sweepRun sweepRun
		root     int64
		start    time.Time
	)
	onTask := func(ti experiments.TaskInfo) {
		end := time.Now()
		rec.add(root, "sweep."+ti.Kind.String(), end.Add(-ti.Duration), end)
		mu.Lock()
		tasks = append(tasks, ti)
		lastEnd[ti.Worker] = end
		mu.Unlock()
	}
	st, ms0, ms1, err := profiled(func() error {
		start = time.Now()
		root = rec.reserve(0, "sweep", start)
		var err error
		sweepRun, err = b.sweep(onTask)
		rec.finish(root, time.Now())
		return err
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfledger: %s self time by leaf package: %s\n", b.name, st.top(8))

	// The traced sweep must decide exactly as the untraced one did.
	out.attempted = 2
	out.digest, out.failed = agree([]string{plain.digest, sweepRun.digest})
	b.check(out, sweepRun)

	mir, err := b.mirror(sweepRun.shard.Outcomes, rec)
	if err != nil {
		return nil, err
	}
	out.attempted += len(sweepRun.shard.Outcomes)
	out.failed += mir.diverged
	for _, d := range mir.diffs {
		out.fail("mirror: %s", d)
	}

	wall := sweepRun.wall
	profNS := st.total
	fr := st.fractions()
	instr := float64(mir.instrP1 + mir.instrP2)
	out.setFractions(st)
	out.set("workload.ns_per_instr", ratio(fr["workload"]*profNS, instr))
	out.set("trace.ns_per_instr", ratio(fr["trace"]*profNS, instr))
	out.set("trace.resident_mib", b.residentMiB)
	out.set("cache.l2_accesses", float64(mir.l2Accesses))
	out.set("cache.l2_misses", float64(mir.l2Misses))
	out.set("cache.ns_per_l2_access", ratio(fr["cache"]*profNS, float64(mir.l2Accesses)))

	hooks := rec.durations("mirror.monitor.hook")
	allocs := rec.durations("mirror.alloc.allocate")
	p1Run := durSum(rec.durations("mirror.engine.run.phase1"))
	p2Run := durSum(rec.durations("mirror.engine.run.candidate"))
	out.set("engine.instructions_p1", float64(mir.instrP1))
	out.set("engine.instructions_p2", float64(mir.instrP2))
	out.set("engine.sim_cycles", float64(mir.cycles))
	out.set("engine.context_switches", float64(mir.switches))
	// Phase-1 engine time excludes the monitor hooks it calls (span self
	// time); the p1 − p2 difference is then the signature unit's cost.
	out.set("engine.p1_ns_per_instr", ratio(float64((p1Run-durSum(hooks)).Nanoseconds()), float64(mir.instrP1)))
	out.set("engine.p2_ns_per_instr", ratio(float64(p2Run.Nanoseconds()), float64(mir.instrP2)))
	out.set("engine.sim_mcycles_per_s", ratio(float64(mir.cycles)/1e6, (p1Run+p2Run).Seconds()))
	out.set("bloom.captures", float64(mir.captures))
	out.set("bloom.saturations", float64(mir.saturations))
	out.set("monitor.invocations", float64(len(hooks)))
	out.set("monitor.busy_ms", durSum(hooks).Seconds()*1e3)
	out.set("monitor.p50_us", durMedianMicros(hooks))
	out.set("alloc.calls", float64(len(allocs)))
	out.set("alloc.busy_ms", durSum(allocs).Seconds()*1e3)
	out.set("alloc.p50_us", durMedianMicros(allocs))

	var busy [2]time.Duration
	var counts [2]int
	steals := 0
	for _, ti := range tasks {
		busy[ti.Kind] += ti.Duration
		counts[ti.Kind]++
		if ti.Stolen {
			steals++
		}
	}
	workers := runtime.GOMAXPROCS(0)
	end := start.Add(time.Duration(wall * float64(time.Second)))
	firstIdle := end
	for w := 0; w < workers; w++ {
		t, ok := lastEnd[w]
		if !ok {
			t = start
		}
		if t.Before(firstIdle) {
			firstIdle = t
		}
	}
	out.set("experiments.tasks_phase1", float64(counts[experiments.TaskPhase1]))
	out.set("experiments.tasks_candidate", float64(counts[experiments.TaskCandidate]))
	out.set("experiments.phase1_busy_s", busy[experiments.TaskPhase1].Seconds())
	out.set("experiments.phase2_busy_s", busy[experiments.TaskCandidate].Seconds())
	out.set("experiments.idle_frac", 1-ratio((busy[0]+busy[1]).Seconds(), float64(workers)*wall))
	out.set("experiments.tail_s", end.Sub(firstIdle).Seconds())
	out.set("experiments.steals", float64(steals))
	out.set("experiments.avg_improvement_pct", out.quality["avg_improvement_pct"])
	out.set("experiments.regret_pct", out.quality["regret_pct"])
	out.set("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
	out.set("runtime.alloc_mib", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
	out.set("tracing_overhead_frac", wall/plain.wall-1)

	path, err := rec.write(opt.workdir, fmt.Sprintf("spans-%s-seed%d", b.name, opt.seed))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfledger: %d spans written to %s\n", len(rec.spans), path)
	return out, nil
}

// mirrorStats are the deterministic per-layer counts the mirror collects.
type mirrorStats struct {
	instrP1, instrP2, cycles, switches uint64
	captures, saturations              uint64
	l2Accesses, l2Misses               uint64
	diverged                           int // mixes whose mirror disagrees with the sweep
	diffs                              []string
}

func (s *mirrorStats) add(o mirrorStats) {
	s.instrP1 += o.instrP1
	s.instrP2 += o.instrP2
	s.cycles += o.cycles
	s.switches += o.switches
	s.captures += o.captures
	s.saturations += o.saturations
	s.l2Accesses += o.l2Accesses
	s.l2Misses += o.l2Misses
	s.diverged += o.diverged
	s.diffs = append(s.diffs, o.diffs...)
}

// mirror re-runs every mix of the sweep through public calls, on
// GOMAXPROCS goroutines, and compares each against its outcome.
func (b *sweepBench) mirror(outcomes []experiments.MixOutcome, rec *recorder) (mirrorStats, error) {
	combos := experiments.Combinations(len(b.pool), mixSize)
	if len(combos) != len(outcomes) {
		return mirrorStats{}, fmt.Errorf("mirror: %d outcomes for %d mixes", len(outcomes), len(combos))
	}
	var (
		total mirrorStats
		mu    sync.Mutex
		wg    sync.WaitGroup
		next  = make(chan int)
	)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				st := b.mirrorMix(j, b.mix(combos[j]), outcomes[j], rec)
				mu.Lock()
				total.add(st)
				mu.Unlock()
			}
		}()
	}
	for j := range combos {
		next <- j
	}
	close(next)
	wg.Wait()
	return total, nil
}

// mirrorMix is Config.Phase1 followed by Config.RunMapping for every
// candidate, spelled out in public calls so each layer boundary is timed.
func (b *sweepBench) mirrorMix(j int, profiles []workload.Profile, o experiments.MixOutcome, rec *recorder) mirrorStats {
	var st mirrorStats
	cfg := b.cfg
	diverge := func(format string, args ...any) {
		if st.diverged == 0 {
			st.diverged = 1
		}
		st.diffs = append(st.diffs, fmt.Sprintf("mix %d: ", j)+fmt.Sprintf(format, args...))
	}

	task := rec.reserve(0, "mirror.phase1", time.Now())
	procs := kernel.Workload(profiles, cfg.Seed, cfg.Scale())
	m := engine.New(cfg.EngineConfig(), procs)
	m.DistributeRoundRobin()
	var run int64
	policy := &timedPolicy{inner: alloc.WeightedInterferenceGraph{}, rec: rec}
	mo := monitor.New(policy)
	hook := mo.Hook()
	timedHook := func(m *engine.Machine, now uint64) {
		id := rec.reserve(run, "mirror.monitor.hook", time.Now())
		policy.parent = id
		hook(m, now)
		rec.finish(id, time.Now())
	}
	run = rec.reserve(task, "mirror.engine.run.phase1", time.Now())
	res := m.Run(engine.RunOptions{Horizon: cfg.Phase1Horizon, MonitorPeriod: cfg.MonitorPeriod, OnMonitor: timedHook})
	rec.finish(run, time.Now())
	maj := mo.Majority()
	if maj == nil {
		threads := 0
		for _, p := range profiles {
			threads += p.Threads
		}
		maj = alloc.RoundRobin{}.Allocate(make([]kernel.View, threads), m.Cores())
	}
	if chosen := maj.Canonical(); !chosen.Equal(o.Chosen) {
		diverge("phase 1 chose %v, sweep chose %v", chosen, o.Chosen)
	}
	st.instrP1 += res.Instructions
	st.cycles += res.Cycles
	st.switches += m.ContextSwitches()
	st.captures += m.ContextSwitches()
	st.saturations += unitSaturations(m)
	st.addL2(m)
	rec.finish(task, time.Now())

	for i, c := range o.Candidates {
		task := rec.reserve(0, "mirror.candidate", time.Now())
		procs := kernel.Workload(profiles, cfg.Seed, cfg.Scale())
		ec := cfg.EngineConfig()
		ec.DisableSignature = true
		m := engine.New(ec, procs)
		m.SetAffinities(c.Mapping)
		run := rec.reserve(task, "mirror.engine.run.candidate", time.Now())
		res := m.Run(engine.RunOptions{})
		rec.finish(run, time.Now())
		rec.finish(task, time.Now())
		if res.Cycles != c.WallCycles {
			diverge("candidate %d: %d wall cycles, sweep %d", i, res.Cycles, c.WallCycles)
		}
		for p, proc := range procs {
			if p >= len(c.UserCycles) || proc.CompletionUser() != c.UserCycles[p] {
				diverge("candidate %d process %d: user cycles %d differ from the sweep's", i, p, proc.CompletionUser())
			}
		}
		st.instrP2 += res.Instructions
		st.cycles += res.Cycles
		st.switches += m.ContextSwitches()
		st.addL2(m)
	}
	return st
}

// addL2 adds the access and miss counts of each distinct L2 of m.
func (s *mirrorStats) addL2(m *engine.Machine) {
	for _, l2 := range m.Hierarchy().L2s() {
		cs := l2.Stats()
		s.l2Accesses += cs.Accesses
		s.l2Misses += cs.Misses
	}
}

// unitSaturations sums the counter saturations of each distinct signature
// unit of m.
func unitSaturations(m *engine.Machine) uint64 {
	seen := map[*bloom.Unit]bool{}
	var n uint64
	for c := 0; c < m.Cores(); c++ {
		u := m.UnitFor(c)
		if u == nil || seen[u] {
			continue
		}
		seen[u] = true
		n += u.Saturations
	}
	return n
}

// timedPolicy records a span around every allocation decision. It forwards
// alloc.ScratchPolicy so the monitor keeps its allocation-free path, and so
// decides exactly as the wrapped policy does.
type timedPolicy struct {
	inner  alloc.ScratchPolicy
	rec    *recorder
	parent int64 // the monitor hook span currently running
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Allocate(views []kernel.View, cores int) alloc.Mapping {
	start := time.Now()
	m := p.inner.Allocate(views, cores)
	p.rec.add(p.parent, "mirror.alloc.allocate", start, time.Now())
	return m
}

func (p *timedPolicy) AllocateScratch(views []kernel.View, cores int, s *alloc.Scratch) alloc.Mapping {
	start := time.Now()
	m := p.inner.AllocateScratch(views, cores, s)
	p.rec.add(p.parent, "mirror.alloc.allocate", start, time.Now())
	return m
}
