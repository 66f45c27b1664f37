// Sparse interference graphs. The dense Graph of graph.go is exactly right
// at the paper's scale (4 processes, 16 threads) but its n×n matrix and the
// full-copy recursive bisection behind PartitionK are O(P²) memory and worse
// in time — the first wall on the road to thousands of processes re-scheduled
// every quantum (ROADMAP directions 2 and 4). Sparse is the scaled
// counterpart: a CSR adjacency with top-m neighbor sparsification, built
// through Builder without ever materializing the dense matrix, partitioned by
// the multilevel code in multilevel.go and repaired incrementally by
// repair.go.
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Sparse is a weighted undirected graph in compressed-sparse-row form. Rows
// are neighbor lists sorted by node id; every edge appears in both endpoint
// rows with the same weight. A freshly built graph is packed (see Builder),
// but the structure is mutable under churn: edge weights change via
// UpdateWeight, and whole nodes arrive and depart via InsertNode/RemoveNode
// (churn.go) — each row carries independent start/end/limit bounds so it can
// grow into slack in place or relocate to tail storage, leaving abandoned
// slots that Compact reclaims lazily and Drift makes observable.
type Sparse struct {
	n     int     // node-id space, including tombstoned slots
	alive int     // nodes not tombstoned by RemoveNode
	off   []int32 // row i storage start
	end   []int32 // row i live end; row i is col/wts[off[i]:end[i]]
	lim   []int32 // row i storage limit; (end, lim) is reusable slack
	col   []int32 // neighbor ids, ascending within a live row
	wts   []float64
	dead  []bool  // tombstoned node slots
	free  []int32 // tombstoned slots available for id reuse (LIFO)
	slots int     // live directed edge slots; Edges() == slots/2
	drift Drift
}

// Len returns the node-id space size, including tombstoned slots — the
// length callers must size id-indexed arrays (CutK assignments) to.
func (s *Sparse) Len() int { return s.n }

// Alive returns the live node count (Len minus tombstoned slots).
func (s *Sparse) Alive() int { return s.alive }

// Removed reports whether node i has been tombstoned by RemoveNode.
func (s *Sparse) Removed(i int) bool {
	s.check(i)
	return s.dead[i]
}

// Edges returns the undirected edge count.
func (s *Sparse) Edges() int { return s.slots / 2 }

// Degree returns the neighbor count of node i (0 for tombstoned nodes).
func (s *Sparse) Degree(i int) int {
	s.check(i)
	return int(s.end[i] - s.off[i])
}

// Row returns node i's neighbor ids and weights. The slices alias the
// graph's storage and must not be modified (weights change via UpdateWeight
// so the symmetric copy stays in sync); they are invalidated by the next
// structural edit (InsertNode/RemoveNode/Compact).
func (s *Sparse) Row(i int) ([]int32, []float64) {
	s.check(i)
	lo, hi := s.off[i], s.end[i]
	return s.col[lo:hi], s.wts[lo:hi]
}

func (s *Sparse) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", i, s.n))
	}
}

// find returns the index into col/wts of edge {i,j}, or -1 if the edge is
// not present (binary search within row i).
func (s *Sparse) find(i, j int) int {
	lo, hi := int(s.off[i]), int(s.end[i])
	row := s.col[lo:hi]
	k := sort.Search(len(row), func(x int) bool { return row[x] >= int32(j) })
	if k < len(row) && row[k] == int32(j) {
		return lo + k
	}
	return -1
}

// Weight returns the weight of edge {i,j}, 0 when the edge is absent (or
// was sparsified away) and for self-edges.
func (s *Sparse) Weight(i, j int) float64 {
	s.check(i)
	s.check(j)
	if i == j {
		return 0
	}
	if k := s.find(i, j); k >= 0 {
		return s.wts[k]
	}
	return 0
}

// UpdateWeight overwrites the weight of the existing edge {i,j} in both
// directions and reports whether the edge was present. A false return means
// the pair was sparsified away (or never offered) — the structure has
// drifted from the logical interference graph, the miss is counted in Drift,
// and the caller decides between living with it and a rebuild through
// Builder. Pair the weight change with RepairPartition to mend the current
// cut instead of recomputing it.
func (s *Sparse) UpdateWeight(i, j int, w float64) bool {
	s.check(i)
	s.check(j)
	if i == j {
		return false
	}
	ki := s.find(i, j)
	if ki < 0 {
		s.drift.Misses++
		return false
	}
	kj := s.find(j, i)
	s.wts[ki] = w
	s.wts[kj] = w
	return true
}

// TotalWeight returns the sum of all edge weights.
func (s *Sparse) TotalWeight() float64 {
	var sum float64
	for i := 0; i < s.n; i++ {
		for _, w := range s.wts[s.off[i]:s.end[i]] {
			sum += w
		}
	}
	return sum / 2
}

// CutWeight returns the total weight of edges crossing between group a and
// group b — the same MIN-CUT objective as the dense Graph.CutWeight, but
// computed in O(Σdeg(a)) with a membership scan instead of O(|a|·|b|).
func (s *Sparse) CutWeight(a, b []int) float64 {
	inB := make([]bool, s.n)
	for _, j := range b {
		s.check(j)
		inB[j] = true
	}
	var sum float64
	for _, i := range a {
		cols, wts := s.Row(i)
		for k, j := range cols {
			if inB[j] {
				sum += wts[k]
			}
		}
	}
	return sum
}

// IntraWeight returns the total weight of edges inside the group.
func (s *Sparse) IntraWeight(group []int) float64 {
	in := make([]bool, s.n)
	for _, i := range group {
		s.check(i)
		in[i] = true
	}
	var sum float64
	for _, i := range group {
		cols, wts := s.Row(i)
		for k, j := range cols {
			if in[j] {
				sum += wts[k]
			}
		}
	}
	return sum / 2
}

// CutK returns the total weight of edges crossing between different groups
// of a k-way partition given as a node→group assignment. Nodes assigned a
// negative group are ignored.
func (s *Sparse) CutK(assign []int32) float64 {
	if len(assign) != s.n {
		panic(fmt.Sprintf("graph: assignment length %d for %d nodes", len(assign), s.n))
	}
	var sum float64
	for i := 0; i < s.n; i++ {
		if assign[i] < 0 {
			continue
		}
		cols, wts := s.Row(i)
		for k, j := range cols {
			if assign[j] >= 0 && assign[j] != assign[i] {
				sum += wts[k]
			}
		}
	}
	return sum / 2
}

// builderEdge is one candidate edge as seen from one endpoint.
type builderEdge struct {
	to int32
	w  float64
}

// Builder accumulates a sparse interference graph one edge at a time,
// keeping at most topM candidates per node — O(P·m) memory however many
// pairs the monitor offers, which is the point: the caller streams the
// (inherently all-pairs) interference terms through Add and never
// materializes the dense matrix.
//
// Sparsification is per-endpoint top-m under the strict order (weight,
// then smaller neighbor id wins ties); an edge survives into the built
// graph when either endpoint retains it, the standard symmetrization that
// keeps the graph connected enough for partitioning. The retained set
// depends only on the multiset of offered edges, not on Add order, so
// builds are deterministic.
//
// Add records final weights, it does not accumulate duplicates (a pair
// evicted from a full top-m heap cannot be found again to sum into): when
// the same pair is offered more than once, the heaviest offer wins.
// Eviction always discards the lightest candidate first, so the surviving
// copies at both endpoints agree and Build's per-row dedup keeps the
// maximum deterministically.
type Builder struct {
	n    int
	topM int
	rows [][]builderEdge // per-node bounded min-heap on (w, -id)
}

// NewBuilder returns a builder for n nodes keeping the top topM neighbors
// per node (topM <= 0 keeps every edge).
func NewBuilder(n, topM int) *Builder {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative size %d", n))
	}
	b := &Builder{n: n, topM: topM, rows: make([][]builderEdge, n)}
	if topM > 0 {
		// A bounded row never outgrows topM, so one slab carved up front
		// replaces every row's append-growth chain with a single allocation.
		slab := make([]builderEdge, n*topM)
		for i := range b.rows {
			b.rows[i] = slab[i*topM : i*topM : (i+1)*topM]
		}
	}
	return b
}

// Reset clears the builder for reuse on n nodes, keeping row capacity.
func (b *Builder) Reset(n, topM int) {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative size %d", n))
	}
	if cap(b.rows) < n {
		b.rows = make([][]builderEdge, n)
	}
	b.rows = b.rows[:n]
	for i := range b.rows {
		b.rows[i] = b.rows[i][:0]
	}
	b.n, b.topM = n, topM
}

// Len returns the node count.
func (b *Builder) Len() int { return b.n }

// edgeLess orders candidate edges for eviction: lower weight first, and
// among equal weights the larger neighbor id — so the survivors of a full
// heap are the heaviest edges with ties resolved toward smaller ids,
// independent of insertion order.
func edgeLess(a, e builderEdge) bool {
	if a.w != e.w {
		return a.w < e.w
	}
	return a.to > e.to
}

// Add offers the undirected edge {i,j} with final weight w. Zero-weight
// edges and self-edges are ignored.
func (b *Builder) Add(i, j int, w float64) {
	if i < 0 || i >= b.n || j < 0 || j >= b.n {
		panic(fmt.Sprintf("graph: node out of range [0,%d)", b.n))
	}
	if i == j || w == 0 {
		return
	}
	b.push(i, builderEdge{to: int32(j), w: w})
	b.push(j, builderEdge{to: int32(i), w: w})
}

// Offer pushes the one-sided candidate i→j of final weight w into node i's
// top-m heap alone; Add is Offer in both directions, and Build's union gives
// j the edge back whenever i keeps it. It returns i's floor: 0 while i's
// heap has room, then the lightest weight it holds. A caller that offers
// each row positive weights in ascending neighbor id may skip any later
// offer to i that does not exceed the floor, since the heap would reject it
// (an equal weight loses the tie to the smaller ids already held) — which
// lets an all-pairs scan reject most pairs without a call.
func (b *Builder) Offer(i, j int, w float64) float64 {
	if i < 0 || i >= b.n || j < 0 || j >= b.n {
		panic(fmt.Sprintf("graph: node out of range [0,%d)", b.n))
	}
	if i != j && w != 0 {
		b.push(i, builderEdge{to: int32(j), w: w})
	}
	if row := b.rows[i]; b.topM > 0 && len(row) >= b.topM {
		return row[0].w
	}
	return 0
}

func (b *Builder) push(i int, e builderEdge) {
	row := b.rows[i]
	if b.topM > 0 && len(row) >= b.topM {
		if !edgeLess(row[0], e) {
			return // candidate is not better than the current minimum
		}
		// replace the root and sift down
		row[0] = e
		k := 0
		for {
			l, r := 2*k+1, 2*k+2
			min := k
			if l < len(row) && edgeLess(row[l], row[min]) {
				min = l
			}
			if r < len(row) && edgeLess(row[r], row[min]) {
				min = r
			}
			if min == k {
				break
			}
			row[k], row[min] = row[min], row[k]
			k = min
		}
		return
	}
	row = append(row, e)
	for k := len(row) - 1; k > 0; {
		p := (k - 1) / 2
		if !edgeLess(row[k], row[p]) {
			break
		}
		row[k], row[p] = row[p], row[k]
		k = p
	}
	b.rows[i] = row
}

// Build assembles the CSR graph: the union of every node's retained
// candidates, each edge symmetric with its offered weight. The builder
// remains usable (Reset) afterwards.
func (s *Builder) Build() *Sparse {
	n := s.n
	// Mark survivors: an edge {i,j} survives if either endpoint kept it.
	// Sort each row by id so union-merging and CSR emission are one pass,
	// and dedup repeated offers of one pair down to the heaviest copy.
	for i := range s.rows {
		row := s.rows[i]
		slices.SortFunc(row, func(a, b builderEdge) int {
			if a.to != b.to {
				return int(a.to - b.to)
			}
			switch {
			case a.w > b.w:
				return -1
			case a.w < b.w:
				return 1
			}
			return 0
		})
		w := 0
		for r := range row {
			if r > 0 && row[r].to == row[w-1].to {
				continue
			}
			row[w] = row[r]
			w++
		}
		s.rows[i] = row[:w]
	}
	deg := make([]int32, n+1)
	for i, row := range s.rows {
		for _, e := range row {
			j := int(e.to)
			deg[i+1]++
			if !s.kept(j, int32(i)) {
				deg[j+1]++ // i kept it, j evicted it: j's row gains it back
			}
		}
	}
	// The loop above counts each surviving directed slot once: (i→j) from
	// i's row, and (j→i) either from j's own row or from the union term.
	// But when BOTH kept the edge, (j→i) is counted by j's own iteration —
	// and the union term must not double it, hence the kept() guard.
	rowPtr := make([]int32, n+1)
	for i := 0; i < n; i++ {
		rowPtr[i+1] = rowPtr[i] + deg[i+1]
	}
	col := make([]int32, rowPtr[n])
	wts := make([]float64, rowPtr[n])
	next := make([]int32, n)
	copy(next, rowPtr[:n])
	emit := func(i int, j int32, w float64) {
		col[next[i]] = j
		wts[next[i]] = w
		next[i]++
	}
	for i, row := range s.rows {
		for _, e := range row {
			emit(i, e.to, e.w)
			if !s.kept(int(e.to), int32(i)) {
				emit(int(e.to), int32(i), e.w)
			}
		}
	}
	// A fresh build is fully packed: every row's storage limit coincides
	// with its live end, so the first structural insert into a row
	// relocates it to tail storage with slack (see churn.go).
	sp := &Sparse{
		n: n, alive: n, slots: len(col),
		off: rowPtr[:n:n], end: make([]int32, n), lim: make([]int32, n),
		col: col, wts: wts, dead: make([]bool, n),
	}
	copy(sp.end, rowPtr[1:])
	copy(sp.lim, rowPtr[1:])
	// Rows built from union terms are appended out of order; normalize.
	// One sorter serves every row, so the sort costs one allocation.
	var rs rowSorter
	for i := 0; i < n; i++ {
		lo, hi := rowPtr[i], rowPtr[i+1]
		rs.col, rs.wts = col[lo:hi], wts[lo:hi]
		sort.Sort(&rs)
	}
	return sp
}

// kept reports whether node i's retained row contains neighbor j (rows are
// sorted by Build before use).
func (s *Builder) kept(i int, j int32) bool {
	row := s.rows[i]
	k := sort.Search(len(row), func(x int) bool { return row[x].to >= j })
	return k < len(row) && row[k].to == j
}

type rowSorter struct {
	col []int32
	wts []float64
}

func (r *rowSorter) Len() int           { return len(r.col) }
func (r *rowSorter) Less(a, b int) bool { return r.col[a] < r.col[b] }
func (r *rowSorter) Swap(a, b int) {
	r.col[a], r.col[b] = r.col[b], r.col[a]
	r.wts[a], r.wts[b] = r.wts[b], r.wts[a]
}

// DenseToSparse converts a dense graph to CSR form with optional top-m
// sparsification — the bridge for benchmarking both partitioners on one
// logical graph and for callers holding a small dense graph that want the
// incremental repair API.
func DenseToSparse(g *Graph, topM int) *Sparse {
	b := NewBuilder(g.Len(), topM)
	for i := 0; i < g.Len(); i++ {
		for j := i + 1; j < g.Len(); j++ {
			if w := g.Weight(i, j); w != 0 {
				b.Add(i, j, w)
			}
		}
	}
	return b.Build()
}
