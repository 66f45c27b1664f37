package alloc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"symbiosched/internal/graph"
	"symbiosched/internal/kernel"
)

// referenceTopPartners is the selection OverlapTable.TopPartners replaces:
// PairWeight against every live view, then m rounds of moving the heaviest
// remaining partner (ties to the lower id) to the front. O(m·P).
func referenceTopPartners(view *kernel.View, views []kernel.View, live []bool, m int) ([]int32, []float64) {
	var nbrs []int32
	var wts []float64
	for u := range views {
		if !live[u] {
			continue
		}
		if w := PairWeight(view, &views[u]); w > 0 {
			nbrs = append(nbrs, int32(u))
			wts = append(wts, w)
		}
	}
	if m > len(nbrs) {
		m = len(nbrs)
	}
	if m < 0 {
		m = 0
	}
	for i := 0; i < m; i++ {
		best := i
		for j := i + 1; j < len(nbrs); j++ {
			if wts[j] > wts[best] || (wts[j] == wts[best] && nbrs[j] < nbrs[best]) {
				best = j
			}
		}
		nbrs[i], nbrs[best] = nbrs[best], nbrs[i]
		wts[i], wts[best] = wts[best], wts[i]
	}
	return nbrs[:m], wts[:m]
}

// randomTableView draws a view that hits every directedTerm edge case with
// useful probability: no signature, LastCore negative or past the vectors,
// Overlap shorter or longer than Symbiosis, and overlap values (popcounts,
// so never negative) from a range small enough that zero terms and equal
// weights are common.
func randomTableView(rng *rand.Rand, cores int) kernel.View {
	v := kernel.View{HasSig: rng.Intn(8) != 0, LastCore: rng.Intn(cores)}
	switch rng.Intn(10) {
	case 0:
		v.LastCore = -1 - rng.Intn(3)
	case 1:
		v.LastCore = cores + rng.Intn(3)
	}
	nsym, nov := cores, cores
	switch rng.Intn(6) {
	case 0:
		nov = rng.Intn(cores + 1)
	case 1:
		nsym = rng.Intn(cores + 1)
	case 2:
		nov = cores + 1 + rng.Intn(2)
		nsym = nov
	}
	v.Symbiosis = make([]int32, nsym)
	v.Overlap = make([]int32, nov)
	for c := range v.Overlap {
		v.Overlap[c] = int32(rng.Intn(4))
	}
	return v
}

// checkTopPartnersParity drives one random population through Set, Clear,
// id reuse and Reset (to a smaller id space, so regrown slots must come back
// dead), checking every live and dead slot and a fresh view against the
// reference at several m after each step.
func checkTopPartnersParity(t *testing.T, seed int64, cores, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var tab OverlapTable
	var views []kernel.View
	var live []bool
	var nbrs []int32
	var wts []float64
	check := func(view *kernel.View, m int) {
		t.Helper()
		wantN, wantW := referenceTopPartners(view, views, live, m)
		nbrs, wts = tab.TopPartners(view, m, nbrs, wts)
		if len(nbrs) != len(wantN) || len(wts) != len(wantW) {
			t.Fatalf("seed %d m=%d: %d partners, want %d (%v vs %v)", seed, m, len(nbrs), len(wantN), nbrs, wantN)
		}
		for i := range wantN {
			if nbrs[i] != wantN[i] || wts[i] != wantW[i] {
				t.Fatalf("seed %d m=%d: partner %d is (%d, %v), want (%d, %v)", seed, m, i, nbrs[i], wts[i], wantN[i], wantW[i])
			}
		}
	}
	for step := 0; step < steps; step++ {
		id := rng.Intn(len(views) + 2)
		if rng.Intn(20) == 0 {
			n := rng.Intn(len(views) + 1)
			views, live = views[:n], live[:n]
			tab.Reset(n)
			for u := range views {
				if live[u] {
					tab.Set(u, &views[u])
				}
			}
		} else if id < len(views) && live[id] && rng.Intn(3) == 0 {
			tab.Clear(id)
			live[id] = false
			views[id] = kernel.View{}
		} else {
			for id >= len(views) {
				views = append(views, kernel.View{})
				live = append(live, false)
			}
			views[id] = randomTableView(rng, cores)
			live[id] = true
			tab.Set(id, &views[id])
		}
		fresh := randomTableView(rng, cores)
		for _, m := range []int{0, 1, 3, 16, len(views) + 1} {
			check(&fresh, m)
		}
		for u := range views {
			check(&views[u], 1+rng.Intn(6))
		}
	}
}

// TestTopPartnersMatchesReference: the columnar table must select exactly
// the partners, in exactly the order and with bit-identical weights, that
// PairWeight plus the O(m·P) selection would.
func TestTopPartnersMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		checkTopPartnersParity(t, seed, 1+int(seed%7), 60)
	}
}

// TestTopPartnersReusesBuffers: passing the previous result back in keeps
// the steady-state scan allocation-free.
func TestTopPartnersReusesBuffers(t *testing.T) {
	views := clusteredViews(256, 16, 16, 1)
	var tab OverlapTable
	for i := range views {
		tab.Set(i, &views[i])
	}
	nbrs, wts := tab.TopPartners(&views[0], 16, nil, nil)
	if len(nbrs) != 16 {
		t.Fatalf("%d partners, want 16", len(nbrs))
	}
	allocs := testing.AllocsPerRun(100, func() {
		nbrs, wts = tab.TopPartners(&views[7], 16, nbrs, wts)
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per call, want 0", allocs)
	}
}

func FuzzTopPartners(f *testing.F) {
	f.Add(int64(0), uint8(4), uint8(20))
	f.Add(int64(1), uint8(1), uint8(40))
	f.Add(int64(2), uint8(9), uint8(8))
	f.Fuzz(func(t *testing.T, seed int64, cores, steps uint8) {
		checkTopPartnersParity(t, seed, 1+int(cores%16), int(steps%64))
	})
}

func BenchmarkTopPartners(b *testing.B) {
	views := clusteredViews(1024, 64, 64, 1)
	var tab OverlapTable
	for i := range views {
		tab.Set(i, &views[i])
	}
	var nbrs []int32
	var wts []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nbrs, wts = tab.TopPartners(&views[i%len(views)], sparseTopM, nbrs, wts)
	}
}

// tableOf fills a table with views, slot i holding views[i]; views with a
// negative LastCore and no signature are cleared instead, the way the churn
// driver marks a departed slot.
func tableOf(views []kernel.View) *OverlapTable {
	var tab OverlapTable
	tab.Reset(len(views))
	for i := range views {
		if v := &views[i]; v.LastCore < 0 && !v.HasSig {
			tab.Clear(i)
		} else {
			tab.Set(i, v)
		}
	}
	return &tab
}

// checkGraphParity asserts that the table-built graph over views equals the
// pair build.
func checkGraphParity(t *testing.T, name string, views []kernel.View) {
	t.Helper()
	checkSameGraph(t, name, tableOf(views).Graph(), buildSparseGraph(views, true, nil))
}

// checkSameGraph asserts that got equals want row for row: the same neighbor
// ids in the same order with the same weight bits.
func checkSameGraph(t *testing.T, name string, got, want *graph.Sparse) {
	t.Helper()
	if got.Len() != want.Len() || got.Edges() != want.Edges() {
		t.Fatalf("%s: %d nodes / %d edges, want %d / %d", name, got.Len(), got.Edges(), want.Len(), want.Edges())
	}
	for i := 0; i < want.Len(); i++ {
		gc, gw := got.Row(i)
		wc, ww := want.Row(i)
		if len(gc) != len(wc) {
			t.Fatalf("%s: node %d has %d neighbors, want %d", name, i, len(gc), len(wc))
		}
		for k := range wc {
			if gc[k] != wc[k] || math.Float64bits(gw[k]) != math.Float64bits(ww[k]) {
				t.Fatalf("%s: node %d edge %d is (%d, %v), want (%d, %v)", name, i, k, gc[k], gw[k], wc[k], ww[k])
			}
		}
	}
}

// sameCoreViews returns n signature views all on core 0 with Overlap[0] = x
// toward it: every pair weighs 2x, so the whole top-m selection is decided
// by the id tie-break.
func sameCoreViews(n int, x int32) []kernel.View {
	views := make([]kernel.View, n)
	for i := range views {
		views[i] = kernel.View{ThreadID: i, HasSig: true, Symbiosis: []int32{1, 1}, Overlap: []int32{x, 1}}
	}
	return views
}

// TestTableGraphMatchesPairBuild: the columnar build must reproduce
// buildSparseGraph(views, true, nil) exactly, on the directed-term edge
// cases, tiny and empty populations, all-zero weights, heavy ties, and
// mutual top partners.
func TestTableGraphMatchesPairBuild(t *testing.T) {
	edge := []kernel.View{
		{HasSig: false, LastCore: 0, Symbiosis: []int32{5, 5}, Overlap: []int32{7, 7}},
		{HasSig: true, LastCore: -1, Symbiosis: []int32{5, 5}, Overlap: []int32{3, 9}},
		{HasSig: true, LastCore: 5, Symbiosis: []int32{5, 5}, Overlap: []int32{4, 2}},
		{HasSig: true, LastCore: 1, Symbiosis: []int32{5, 5, 5}, Overlap: []int32{6}},
		{HasSig: true, LastCore: 0, Symbiosis: []int32{5}, Overlap: []int32{2, 8}},
		{LastCore: -1}, // a departed slot
		{HasSig: true, LastCore: 1, Symbiosis: []int32{5, 5}, Overlap: []int32{1, 1}},
	}
	checkGraphParity(t, "edge cases", edge)
	for _, n := range []int{0, 1, 2, sparseTopM - 1, sparseTopM, sparseTopM + 1} {
		views := clusteredViews(n, 4, 2, int64(n))
		checkGraphParity(t, fmt.Sprintf("n=%d", n), views)
	}
	zero := clusteredViews(40, 4, 4, 3)
	for i := range zero {
		clear(zero[i].Overlap)
	}
	checkGraphParity(t, "all-zero weights", zero)
	if g := tableOf(zero).Graph(); g.Edges() != 0 {
		t.Fatalf("all-zero weights built %d edges", g.Edges())
	}
	checkGraphParity(t, "all ties", sameCoreViews(3*sparseTopM, 5))
	// Mutual partners: clusters of four on one core each, with heavy
	// intra-cluster overlap, so most top partners choose each other — the
	// case where pushing per-node top-m lists as pairs would double-offer.
	checkGraphParity(t, "mutual partners", clusteredViews(200, 50, 50, 9))
	checkGraphParity(t, "clustered", clusteredViews(300, 16, 16, 1))
	for seed := int64(0); seed < 30; seed++ {
		checkRandomGraphParity(t, seed, 1+int(seed%7), 1+int(seed*13%90))
	}
}

// checkRandomGraphParity draws n random edge-case views on cores cores and
// checks the table build against the pair build.
func checkRandomGraphParity(t *testing.T, seed int64, cores, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	views := make([]kernel.View, n)
	for i := range views {
		if rng.Intn(6) == 0 {
			views[i] = kernel.View{LastCore: -1}
			continue
		}
		views[i] = randomTableView(rng, cores)
	}
	checkGraphParity(t, fmt.Sprintf("seed %d cores %d n %d", seed, cores, n), views)
}

// TestTableGraphAfterChurn: a table kept in step through Set, Clear and id
// reuse builds the same graph as the pair build over the same views.
func TestTableGraphAfterChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	views := clusteredViews(120, 8, 8, 2)
	tab := tableOf(views)
	for step := 0; step < 200; step++ {
		id := rng.Intn(len(views))
		if rng.Intn(2) == 0 {
			views[id] = kernel.View{LastCore: -1}
			tab.Clear(id)
		} else {
			views[id] = randomTableView(rng, 8)
			tab.Set(id, &views[id])
		}
	}
	checkSameGraph(t, "after churn", tab.Graph(), buildSparseGraph(views, true, nil))
}

// TestOverlapTableRejectsNegativeOverlap: the table keeps only positive
// weights while the pair build keeps any nonzero one, so a negative term
// (impossible for a popcount) must fail loudly at Set rather than make the
// two builds diverge. A negative entry past Symbiosis is never read, so it
// is not a term and is accepted.
func TestOverlapTableRejectsNegativeOverlap(t *testing.T) {
	var tab OverlapTable
	tab.Set(0, &kernel.View{HasSig: true, Symbiosis: []int32{1}, Overlap: []int32{3, -1}})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Set accepted a negative overlap term")
			}
		}()
		tab.Set(1, &kernel.View{HasSig: true, Symbiosis: []int32{1, 1}, Overlap: []int32{3, -1}})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("SparseInterferenceGraph accepted a negative overlap term")
			}
		}()
		views := clusteredViews(4, 2, 2, 1)
		views[2].Overlap[1] = -4
		SparseInterferenceGraph(views)
	}()
}

func FuzzTableGraph(f *testing.F) {
	f.Add(int64(0), uint8(4), uint8(40))
	f.Add(int64(1), uint8(1), uint8(17))
	f.Add(int64(2), uint8(9), uint8(1))
	f.Add(int64(3), uint8(2), uint8(120))
	f.Fuzz(func(t *testing.T, seed int64, cores, n uint8) {
		checkRandomGraphParity(t, seed, 1+int(cores%16), int(n))
	})
}

// BenchmarkTableGraph measures the interference-graph build at the churn
// driver's shape (k = 64 cores, top-16): the columnar table build against
// the pair build it replaced. The table is filled outside the timer, as the
// churn driver keeps it filled.
func BenchmarkTableGraph(b *testing.B) {
	for _, p := range []int{256, 1024, 4096} {
		views := clusteredViews(p, 64, 64, 1)
		tab := tableOf(views)
		b.Run(fmt.Sprintf("table/P=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tab.Graph()
			}
		})
		b.Run(fmt.Sprintf("pairs/P=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buildSparseGraph(views, true, nil)
			}
		})
	}
}
