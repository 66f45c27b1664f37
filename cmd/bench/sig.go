package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"symbiosched/internal/alloc"
	"symbiosched/internal/bloom"
	"symbiosched/internal/kernel"
	"symbiosched/internal/monitor"
)

// The signature layer: what one context switch costs the
// signature unit, and what one full monitor quantum costs the control loop,
// as the thread count P and core count N grow. Two capture modes per point:
//
//   - eager: the pre-lazy baseline — the unit computes the full (2+N)-entry
//     symbiosis record at every switch, O(N · filter words) each.
//   - lazy:  the default — a switch snapshots the RBV and takes filter-
//     version references, O(words + N); the symbiosis vectors materialize on
//     the first read (here: inside the monitor quantum) and are memoized.
//
// Both units replay the IDENTICAL fill/evict/switch schedule, and the
// materialized records are hashed at the end: a mismatch between the two
// modes aborts the benchmark, so every recorded point is also a parity
// check. The monitor quantum is measured on the lazy unit — snapshot
// (including materialization), smoothing, allocation — with fresh captures
// before every invocation, the way a live control loop pays it.
//
// Each (P, N) cell is one point: its times are the monitor quantum's, the
// per-switch capture costs go in Info, and its checksum pairs the FNV of the
// materialized records with that of the monitor's mapping decision
// ("capture/monitor"). A sample that disagrees with the first, or eager
// capture that disagrees with lazy, aborts the run.

// sigGrid is the (threads, cores) sweep; geometry is the paper's 4 MB
// 16-way L2 (4096 sets) with the default 1/4 set sampling.
var sigGrid = [][2]int{{8, 2}, {32, 4}, {64, 8}, {256, 16}, {1024, 64}}

// sigBench holds one capture mode's replay state.
type sigBench struct {
	unit *bloom.Unit
	sigs []*bloom.Signature
	rng  uint64
	hist []fillRecord // ring of past fills, evicted in FIFO order
	pos  int
}

type fillRecord struct {
	addr     uint64
	set, way int
}

func newSigBench(p, n int, eager bool) *sigBench {
	cfg := bloom.DefaultConfig(bloom.Geometry{Sets: 4096, Ways: 16}, n)
	cfg.CounterBits = 8
	cfg.SampleRate = 4
	cfg.EagerCapture = eager
	return &sigBench{
		unit: bloom.NewUnit(cfg),
		sigs: make([]*bloom.Signature, p),
		rng:  0x9E3779B97F4A7C15,
		hist: make([]fillRecord, 0, 4096),
	}
}

func (b *sigBench) next() uint64 {
	b.rng = b.rng*6364136223846793005 + 1442695040888963407
	return b.rng >> 16
}

// mutate applies one switch's worth of cache traffic for core: two fills and,
// once the history ring is warm, one eviction of the oldest resident line.
func (b *sigBench) mutate(core int) {
	for f := 0; f < 2; f++ {
		r := b.next()
		rec := fillRecord{addr: r, set: int(r % 4096), way: int((r >> 12) % 16)}
		b.unit.OnFill(core, rec.addr, rec.set, rec.way)
		if len(b.hist) < cap(b.hist) {
			b.hist = append(b.hist, rec)
		} else {
			old := b.hist[b.pos]
			b.unit.OnEvict(old.addr, old.set, old.way)
			b.hist[b.pos] = rec
			b.pos = (b.pos + 1) % len(b.hist)
		}
	}
}

// run replays iters mutate+switch steps and returns the wall time of the
// whole batch. The schedule is a pure function of the LCG state, so eager
// and lazy replicas stay in lockstep.
func (b *sigBench) run(n, iters int) time.Duration {
	start := time.Now()
	for i := 0; i < iters; i++ {
		th := i % len(b.sigs)
		core := th % n
		b.mutate(core)
		b.sigs[th] = b.unit.ContextSwitchInto(core, b.sigs[th])
	}
	return time.Since(start)
}

// checksum materializes every captured record and hashes its contents.
func (b *sigBench) checksum() string {
	h := fnv.New64a()
	var w [8]byte
	put := func(v uint64) {
		for i := range w {
			w[i] = byte(v >> (8 * i))
		}
		h.Write(w[:])
	}
	for _, sig := range b.sigs {
		if sig == nil {
			put(^uint64(0))
			continue
		}
		sig.Materialize()
		put(uint64(sig.LastCore))
		put(uint64(sig.Occupancy))
		for j := range sig.Symbiosis {
			put(uint64(sig.Symbiosis[j]))
			put(uint64(sig.Overlap[j]))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// sampleSwitches runs one sample of the per-switch measurement: a fresh
// unit, an untimed warm batch (steady occupancy, version pools populated), a
// timed batch, and the checksum of the final captured records. Every sample
// replays the IDENTICAL schedule from the identical starting state — the
// timings are repeated samples of one computation and the checksum is
// invariant to -reps, matching the allocator layer's protocol.
func sampleSwitches(p, n, iters int, eager bool) (nsPerSwitch float64, sum string) {
	b := newSigBench(p, n, eager)
	b.run(n, iters)
	t := b.run(n, iters)
	return float64(t.Nanoseconds()) / float64(iters), b.checksum()
}

// runSigBench measures every (P, N) cell of the grid.
func runSigBench(reps int) []Point {
	var points []Point
	for _, cell := range sigGrid {
		p, n := cell[0], cell[1]
		iters := max(2*p, 512)
		eagerNs := make([]float64, 0, reps)
		lazyNs := make([]float64, 0, reps)
		var eagerSum, lazySum string
		for s := 0; s < reps; s++ {
			ens, esum := sampleSwitches(p, n, iters, true)
			lns, lsum := sampleSwitches(p, n, iters, false)
			eagerNs = append(eagerNs, ens)
			lazyNs = append(lazyNs, lns)
			if s == 0 {
				eagerSum, lazySum = esum, lsum
			} else if esum != eagerSum || lsum != lazySum {
				fatal(fmt.Errorf("sig P=%d N=%d: sample %d not deterministic", p, n, s))
			}
		}
		if eagerSum != lazySum {
			fatal(fmt.Errorf("sig P=%d N=%d: eager and lazy capture disagree (%s vs %s) — the lazy path is broken, do not record this build", p, n, eagerSum, lazySum))
		}
		eager, _ := percentiles(eagerNs)
		lazy, _ := percentiles(lazyNs)

		times, decision := measureMonitorQuantum(p, n, iters, reps)
		pt := Point{Case: fmt.Sprintf("P=%d N=%d", p, n), Checksum: lazySum + "/" + decision}
		pt.P50, pt.P99 = percentiles(times)
		pt.Gated = times[0] // sorted by percentiles: the minimum, robust to ambient load
		pt.Info = map[string]float64{
			"switches":            float64(iters),
			"eager_ns_per_switch": eager,
			"lazy_ns_per_switch":  lazy,
			"capture_speedup":     eager / lazy,
		}
		points = append(points, pt)
	}
	return points
}

// measureMonitorQuantum times the full control-loop step on the lazy unit:
// snapshot with deferred materialization, smoothing, allocation. Like the
// switch samples, every invocation rebuilds the identical state — fresh
// unit, fresh captures for all P threads, fresh monitor — so the mapping
// checksum is a pure function of (P, N), invariant to -reps. It returns the
// per-invocation times (ms) and the decision checksum.
func measureMonitorQuantum(p, n, iters, reps int) ([]float64, string) {
	procs := make([]*kernel.Process, p)
	for i := range procs {
		pr := &kernel.Process{ID: i, Name: fmt.Sprintf("t%d", i)}
		pr.Threads = []*kernel.Thread{{ID: i, Proc: pr, Affinity: i % n}}
		procs[i] = pr
	}

	var mapping alloc.Mapping
	var sum string
	times := make([]float64, 0, reps)
	for s := 0; s < reps; s++ {
		b := newSigBench(p, n, false)
		b.run(n, iters) // same warm + capture schedule as the switch samples
		b.run(n, iters)
		for i, pr := range procs {
			pr.Threads[0].Sig = b.sigs[i]
		}
		mo := monitor.New(alloc.WeightedInterferenceGraph{})
		mo.Smoothing = 0.5
		start := time.Now()
		mapping = mo.Observe(procs, n)
		times = append(times, ms(time.Since(start)))
		if cur := mappingChecksum(mapping.Canonical()); s == 0 {
			sum = cur
		} else if cur != sum {
			fatal(fmt.Errorf("sig P=%d N=%d: monitor decision not deterministic", p, n))
		}
	}
	return times, sum
}
