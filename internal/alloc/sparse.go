package alloc

import (
	"sort"

	"symbiosched/internal/graph"
	"symbiosched/internal/kernel"
)

// The dense n×n interference matrix and the recursive full-copy bisection
// behind it scale as O(n²) memory and roughly O(n⁴) time — fine for the
// paper's 4-to-8-thread testbeds, hopeless for a NUMA box running thousands
// of processes. Above sparseThreshold threads the graph policies switch to a
// top-m sparsified CSR graph partitioned by the multilevel algorithm.
//
// The threshold sits above every configuration the experiments sweep
// (≤ 16 threads), so all published results and their determinism checksums
// come from the unchanged dense path.
const (
	sparseThreshold = 64
	sparseTopM      = 16
)

// directedTerm is the §3.3.2/§3.3.3 directed interference of thread vi
// toward a thread on core — the same term buildGraph accumulates, factored
// out so the sparse builder can stream it without a matrix.
func directedTerm(vi *kernel.View, core int, weighted bool) float64 {
	if !vi.HasSig || core < 0 || core >= len(vi.Symbiosis) {
		return 0
	}
	if weighted {
		if core < len(vi.Overlap) {
			return float64(vi.Overlap[core])
		}
		return 0
	}
	return interference(int(vi.Symbiosis[core]))
}

// PairWeight returns the §3.3.3 weighted interference between two threads —
// the edge weight SparseInterferenceGraph would assign the pair. Exported
// for the churn workflow: when a thread arrives mid-run, the driver scores
// it against candidate partners with PairWeight to pick the top-m neighbor
// set for graph.InsertAndRepair, and the monitor's aging refresh recomputes
// the same term as its fresh reading — all without rebuilding the graph.
func PairWeight(vi, vj *kernel.View) float64 {
	return directedTerm(vi, vj.LastCore, true) + directedTerm(vj, vi.LastCore, true)
}

// buildSparseGraph streams the pairwise interference weights
// w(i,j) = d(i→core(j)) + d(j→core(i)) through a top-m builder: O(n·m)
// memory instead of the dense path's O(n²), with each node retaining its m
// heaviest neighbors (plus any edge a neighbor retained — the union keeps
// the graph symmetric). The O(n²) pair enumeration remains, but each term is
// two array reads, not a matrix write.
//
// override, when non-nil, replaces the interference weight for a pair:
// returning (w, true) uses w (zero drops the edge), (_, false) keeps the
// streamed weight. TwoPhase uses it to pin same-group threads of a process
// together and cut apart different-group ones.
func buildSparseGraph(views []kernel.View, weighted bool, override func(i, j int) (float64, bool)) *graph.Sparse {
	b := graph.NewBuilder(len(views), sparseTopM)
	for i := range views {
		vi := &views[i]
		for j := i + 1; j < len(views); j++ {
			vj := &views[j]
			var w float64
			if override != nil {
				if ow, ok := override(i, j); ok {
					if ow != 0 {
						b.Add(i, j, ow)
					}
					continue
				}
			}
			if weighted {
				w = PairWeight(vi, vj)
			} else {
				w = directedTerm(vi, vj.LastCore, false) + directedTerm(vj, vi.LastCore, false)
			}
			if w != 0 {
				b.Add(i, j, w)
			}
		}
	}
	return b.Build()
}

// SparseInterferenceGraph builds the §3.3.3 weighted interference graph in
// top-m sparse form — the graph the large-P policies partition. Exported so
// callers can drive the incremental workflow directly: partition once, then
// graph.RepairPartition after small signature deltas instead of
// re-partitioning from scratch (and so the benchmark harness can measure
// each stage in isolation).
func SparseInterferenceGraph(views []kernel.View) *graph.Sparse {
	return buildSparseGraph(views, true, nil)
}

// partitionOrKeepSparse is partitionOrKeep for the sparse path: a zero-signal
// graph keeps the current placement (the paper's "default schedules"
// observation), anything else is multilevel-partitioned into balanced
// per-core groups.
func partitionOrKeepSparse(s *graph.Sparse, views []kernel.View, cores int) Mapping {
	if s.TotalWeight() == 0 {
		if cur, ok := currentPlacement(views, cores); ok {
			return cur
		}
		return RoundRobin{}.Allocate(views, cores)
	}
	return groupsToMapping(s.PartitionK(cores), len(views))
}

// twoPhaseSparse is TwoPhase.Allocate beyond sparseThreshold: the same two
// phases, with the phase-2 edge adjustments applied during the sparse build
// instead of rewriting a dense matrix.
func twoPhaseSparse(views []kernel.View, cores int) Mapping {
	// Pin weight: exceed the sum of every directed term so the MIN-CUT can
	// never profit from splitting a pinned pair. Computed per core label in
	// O(n·N) rather than enumerating pairs.
	maxCore := 0
	for i := range views {
		if c := views[i].LastCore; c > maxCore {
			maxCore = c
		}
	}
	onCore := make([]int, maxCore+1)
	for i := range views {
		if c := views[i].LastCore; c >= 0 {
			onCore[c]++
		}
	}
	total := 0.0
	for i := range views {
		vi := &views[i]
		for c, cnt := range onCore {
			if cnt > 0 {
				// Rounded product: no fused multiply-add on any GOARCH.
				total += float64(float64(cnt) * directedTerm(vi, c, true))
			}
		}
		// The c == LastCore bucket counted vi pairing with itself.
		if c := vi.LastCore; c >= 0 {
			total -= directedTerm(vi, c, true)
		}
	}
	pin := 10 * (total + 1)

	// Phase 1: per-process occupancy-weight grouping, exactly as the dense
	// path does it. group[i] is thread i's same-core group within its
	// process, or -1 for threads of single-threaded processes.
	group := make([]int, len(views))
	for i := range group {
		group[i] = -1
	}
	byProc := map[int][]int{}
	for i, v := range views {
		byProc[v.ProcID] = append(byProc[v.ProcID], i)
	}
	for _, members := range byProc {
		if len(members) < 2 {
			continue
		}
		order := append([]int(nil), members...)
		sort.SliceStable(order, func(a, b int) bool {
			return views[order[a]].Occupancy > views[order[b]].Occupancy
		})
		groupSize := (len(order) + cores - 1) / cores
		for rank, idx := range order {
			group[idx] = rank / groupSize
		}
	}

	// Phase 2: weighted graph with intra-process pins, built sparsely.
	s := buildSparseGraph(views, true, func(i, j int) (float64, bool) {
		if views[i].ProcID != views[j].ProcID || group[i] < 0 {
			return 0, false // inter-process: keep the streamed weight
		}
		if group[i] == group[j] {
			return pin, true
		}
		return 0, true // same process, different groups: no edge
	})
	return partitionOrKeepSparse(s, views, cores)
}
