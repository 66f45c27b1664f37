// Package alloc implements the paper's three resource-allocation algorithms
// (§3.3) — occupancy-weight sorting, the interference graph, and the
// weighted interference graph — together with the two-phase adaptation for
// multi-threaded applications (§3.3.4) and the baseline policies the paper
// compares against (the OS default round-robin placement and a miss-rate
// sorter standing in for performance-counter-driven schedulers).
//
// A policy consumes the monitor's view of every thread (the §3.2 syscall
// snapshot: occupancy weight, per-core symbiosis and per-core footprint
// overlap from the Bloom-filter hardware) and produces a thread→core
// mapping, which the monitor applies through affinity bits.
package alloc

import (
	"fmt"
	"sort"
	"strconv"

	"symbiosched/internal/graph"
	"symbiosched/internal/kernel"
)

// Mapping assigns each thread (by position) to a core.
type Mapping []int

// Equal reports whether two mappings are identical.
func (m Mapping) Equal(o Mapping) bool {
	if len(m) != len(o) {
		return false
	}
	for i := range m {
		if m[i] != o[i] {
			return false
		}
	}
	return true
}

// Canonical returns the mapping with core labels renumbered in order of
// first appearance. Two mappings that differ only by a permutation of core
// labels describe the same co-location and canonicalise identically —
// exactly what the majority vote of §4.1 needs to count.
func (m Mapping) Canonical() Mapping {
	return m.CanonicalInto(nil)
}

// CanonicalInto canonicalises into dst, growing it only when its capacity is
// insufficient. The monitor calls this every period on a reused buffer;
// with core labels in [0, 256) — every real machine — the rename table lives
// on the stack and the steady-state call performs zero allocations.
func (m Mapping) CanonicalInto(dst Mapping) Mapping {
	if cap(dst) < len(m) {
		dst = make(Mapping, len(m))
	}
	dst = dst[:len(m)]
	const bound = 256
	hi := 0
	for _, c := range m {
		if c < 0 || c >= bound {
			return m.canonicalMap(dst)
		}
		if c > hi {
			hi = c
		}
	}
	var rename [bound]int16
	for i := range rename[:hi+1] {
		rename[i] = -1
	}
	next := int16(0)
	for i, c := range m {
		if rename[c] < 0 {
			rename[c] = next
			next++
		}
		dst[i] = int(rename[c])
	}
	return dst
}

// canonicalMap is the fallback for out-of-range core labels.
func (m Mapping) canonicalMap(dst Mapping) Mapping {
	rename := make(map[int]int, len(m))
	next := 0
	for i, c := range m {
		r, ok := rename[c]
		if !ok {
			r = next
			rename[c] = r
			next++
		}
		dst[i] = r
	}
	return dst
}

// Key renders the canonical mapping as a compact string usable as a map key,
// in the same "[0 1 0 1]" format as fmt.Sprint of the canonical slice. The
// common small-mapping case (the monitor calls this every period) runs
// entirely on stack scratch and performs a single allocation for the string.
func (m Mapping) Key() string {
	const small = 32
	if len(m) > small {
		return fmt.Sprint([]int(m.Canonical()))
	}
	// Canonicalise into stack scratch: seen holds core labels in order of
	// first appearance, so a linear scan doubles as the rename table.
	var seen [small]int
	var canon [small]int
	next := 0
	for i, c := range m {
		r := -1
		for j := 0; j < next; j++ {
			if seen[j] == c {
				r = j
				break
			}
		}
		if r < 0 {
			r = next
			seen[next] = c
			next++
		}
		canon[i] = r
	}
	var buf [2 + 3*small]byte
	out := append(buf[:0], '[')
	for i := 0; i < len(m); i++ {
		if i > 0 {
			out = append(out, ' ')
		}
		out = strconv.AppendInt(out, int64(canon[i]), 10)
	}
	out = append(out, ']')
	return string(out)
}

// Policy maps monitor views to a thread→core mapping.
type Policy interface {
	Name() string
	Allocate(views []kernel.View, cores int) Mapping
}

// interference converts a symbiosis value into the paper's interference
// metric: the reciprocal of symbiosis (§3.3.2). A zero symbiosis (both
// vectors empty or identical) is treated as maximal interference with a
// finite value so the graph stays numeric.
func interference(symbiosis int) float64 {
	if symbiosis <= 0 {
		return 1
	}
	return 1 / float64(symbiosis)
}

// groupsToMapping converts per-core groups of thread indices into a Mapping.
func groupsToMapping(groups [][]int, n int) Mapping {
	m := make(Mapping, n)
	for core, grp := range groups {
		for _, t := range grp {
			m[t] = core
		}
	}
	return m
}

// WeightSort is §3.3.1: sort threads by occupancy weight (descending) and
// pack consecutive runs of ⌈P/N⌉ onto the same core, so the heaviest cache
// users time-share a core instead of fighting for the L2.
type WeightSort struct{}

// Name returns the paper's name for the algorithm.
func (WeightSort) Name() string { return "weight-sort" }

// Allocate implements Policy.
func (WeightSort) Allocate(views []kernel.View, cores int) Mapping {
	return sortAndPack(views, cores, func(v kernel.View) float64 {
		return float64(v.Occupancy)
	})
}

// MissRateSort is the performance-counter baseline the paper argues against
// (§2.2): identical packing to WeightSort but keyed on L2 miss rate instead
// of the Bloom-filter occupancy weight. Misses measure traffic, not
// footprint, so two programs with identical miss rates can have footprints
// differing by the Fig 1 factor of 8.
type MissRateSort struct{}

// Name returns the baseline's name.
func (MissRateSort) Name() string { return "missrate-sort" }

// Allocate implements Policy.
func (MissRateSort) Allocate(views []kernel.View, cores int) Mapping {
	return sortAndPack(views, cores, func(v kernel.View) float64 {
		return v.L2MissRate
	})
}

func sortAndPack(views []kernel.View, cores int, key func(kernel.View) float64) Mapping {
	if cores <= 0 {
		panic("alloc: cores must be positive")
	}
	order := make([]int, len(views))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return key(views[order[a]]) > key(views[order[b]])
	})
	group := (len(views) + cores - 1) / cores
	m := make(Mapping, len(views))
	for rank, idx := range order {
		m[idx] = rank / group
	}
	return m
}

// RoundRobin is the contention-oblivious OS default: thread i on core i%N.
type RoundRobin struct{}

// Name returns the baseline's name.
func (RoundRobin) Name() string { return "round-robin" }

// Allocate implements Policy.
func (RoundRobin) Allocate(views []kernel.View, cores int) Mapping {
	m := make(Mapping, len(views))
	for i := range m {
		m[i] = i % cores
	}
	return m
}

// InterferenceGraph is §3.3.2: build the undirected interference graph from
// the reciprocal-symbiosis metrics and MIN-CUT it into balanced per-core
// groups, maximizing intra-group (same-core) interference.
type InterferenceGraph struct{}

// Name returns the paper's name for the algorithm.
func (InterferenceGraph) Name() string { return "interference-graph" }

// Allocate implements Policy. Beyond sparseThreshold threads the dense n×n
// matrix and the O(n⁴) recursive bisection are replaced by the top-m sparse
// graph and the multilevel partitioner; below it the dense path runs
// unchanged, so small-machine decisions are bit-identical to prior releases.
func (InterferenceGraph) Allocate(views []kernel.View, cores int) Mapping {
	if len(views) > sparseThreshold {
		return partitionOrKeepSparse(buildSparseGraph(views, false, nil), views, cores)
	}
	return partitionOrKeep(buildGraph(views, false), views, cores)
}

// WeightedInterferenceGraph is §3.3.3: interference terms weighted by
// occupancy, curing the "low symbiosis because low occupancy" ambiguity.
//
// The §3.3.3 formula multiplies 1/symbiosis by the source's occupancy
// weight, which still rewards pairing with a LOW-occupancy core (a small
// core filter also yields a small symbiosis). The implementation therefore
// uses the direct occupancy-weighted conflict measure the construction
// approximates: the directed term P→Q is popcount(RBV_P ∧ CF_core(Q)) — the
// footprint overlap, bounded by min(|RBV_P|, |CF|) and hence weighted by
// both sides' occupancies. At the paper's filter sizing (entries = sampled
// cache lines) a saturated filter makes 1/XOR-similarity and overlap agree;
// the overlap form stays monotone when the filter is not saturated. See
// DESIGN.md note 10. This is the paper's best-performing algorithm.
type WeightedInterferenceGraph struct{}

// Name returns the paper's name for the algorithm.
func (WeightedInterferenceGraph) Name() string { return "weighted-interference-graph" }

// Allocate implements Policy. Large thread counts take the sparse multilevel
// path; see InterferenceGraph.Allocate.
func (WeightedInterferenceGraph) Allocate(views []kernel.View, cores int) Mapping {
	if len(views) > sparseThreshold {
		return partitionOrKeepSparse(SparseInterferenceGraph(views), views, cores)
	}
	return partitionOrKeep(buildGraph(views, true), views, cores)
}

// AllocateDense forces the dense matrix + recursive-bisection path regardless
// of thread count — the pre-sparsification baseline, kept callable so the
// benchmark harness can measure the crossover honestly.
func (WeightedInterferenceGraph) AllocateDense(views []kernel.View, cores int) Mapping {
	return partitionOrKeep(buildGraph(views, true), views, cores)
}

// partitionOrKeep MIN-CUTs the interference graph into balanced per-core
// groups — unless the graph carries no signal at all (every edge zero), in
// which case the current placement is kept. A saturated or degenerate
// signature (the paper's presence-bit vectors, Fig 14) conveys nothing, and
// the paper observes that such configurations simply stay on "the default
// schedules with which the processes began execution"; an arbitrary
// tie-break would instead reshuffle them randomly.
func partitionOrKeep(g *graph.Graph, views []kernel.View, cores int) Mapping {
	if g.TotalWeight() == 0 {
		if cur, ok := currentPlacement(views, cores); ok {
			return cur
		}
		return RoundRobin{}.Allocate(views, cores)
	}
	return groupsToMapping(g.PartitionK(cores), len(views))
}

// currentPlacement reconstructs the present thread→core assignment from the
// views' last-core fields, reporting false if it is not balanced.
func currentPlacement(views []kernel.View, cores int) (Mapping, bool) {
	capacity := (len(views) + cores - 1) / cores
	counts := make([]int, cores)
	m := make(Mapping, len(views))
	for i, v := range views {
		c := v.LastCore
		if c < 0 || c >= cores {
			return nil, false
		}
		counts[c]++
		if counts[c] > capacity {
			return nil, false
		}
		m[i] = c
	}
	return m, true
}

// buildGraph constructs the undirected interference graph of §3.3.2/Fig 7:
// the directed edge P→Q carries P's interference with Q's core (a process is
// assumed to interfere equally with every process of another core), and the
// two directions are summed into the undirected weight. With weighted false
// the directed term is the paper's reciprocal symbiosis; with weighted true
// it is the occupancy-weighted footprint overlap (§3.3.3 as implemented by
// WeightedInterferenceGraph).
func buildGraph(views []kernel.View, weighted bool) *graph.Graph {
	g := graph.New(len(views))
	fillGraph(g, views, weighted)
	return g
}

// fillGraph populates an already-sized graph with the interference edges —
// the shared body of buildGraph and the scratch (allocation-free) path.
func fillGraph(g *graph.Graph, views []kernel.View, weighted bool) {
	for i, vi := range views {
		if !vi.HasSig {
			continue
		}
		for j, vj := range views {
			if i == j {
				continue
			}
			core := vj.LastCore
			if core < 0 || core >= len(vi.Symbiosis) {
				continue
			}
			var w float64
			if weighted {
				if core < len(vi.Overlap) {
					w = float64(vi.Overlap[core])
				}
			} else {
				w = interference(int(vi.Symbiosis[core]))
			}
			g.AddWeight(i, j, w)
		}
	}
}

// Scratch holds the reusable buffers for ScratchPolicy invocations: the
// dense interference graph, the bisection working set and the mapping
// buffer. The zero value is ready to use; one Scratch serves one monitor
// (calls must not interleave).
type Scratch struct {
	g       graph.Graph
	bisect  graph.BisectScratch
	mapping Mapping
}

// ScratchPolicy is implemented by policies that can allocate without heap
// churn given reusable buffers. The monitor prefers this path; the returned
// mapping aliases s and is overwritten by the next call, so callers that
// retain it must copy (the monitor's vote recording already does).
type ScratchPolicy interface {
	Policy
	AllocateScratch(views []kernel.View, cores int, s *Scratch) Mapping
}

// AllocateScratch implements ScratchPolicy for the weighted interference
// graph. The zero-allocation fast path covers the dense two-core decision —
// the monitor's steady state on the paper's dual-core machines, where this
// runs every period — reusing s's graph, bisection buffers and mapping.
// Other shapes (k > 2 hierarchical bisection, the sparse large-P path, and
// the no-signal placement fallback) defer to Allocate; the decisions are
// identical on every path because the scratch fast path runs the same
// fillGraph + BisectInto procedure Allocate does.
func (p WeightedInterferenceGraph) AllocateScratch(views []kernel.View, cores int, s *Scratch) Mapping {
	if len(views) > sparseThreshold || cores != 2 {
		return p.Allocate(views, cores)
	}
	s.g.Reset(len(views))
	fillGraph(&s.g, views, true)
	if s.g.TotalWeight() == 0 {
		// No signal: keep the current placement (see partitionOrKeep).
		if cur, ok := currentPlacement(views, cores); ok {
			return cur
		}
		return RoundRobin{}.Allocate(views, cores)
	}
	a, b := s.g.BisectInto(&s.bisect)
	if cap(s.mapping) < len(views) {
		s.mapping = make(Mapping, len(views))
	}
	m := s.mapping[:len(views)]
	for _, t := range a {
		m[t] = 0
	}
	for _, t := range b {
		m[t] = 1
	}
	return m
}
