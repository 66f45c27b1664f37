package graph

import (
	"math/rand"
	"testing"
)

// randomSparse builds a random graph with roughly avgDeg neighbors per node,
// returned in both dense and sparse (unsparsified) forms so tests can
// compare the two representations on one logical graph.
func randomSparse(n, avgDeg int, seed int64) (*Graph, *Sparse) {
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	b := NewBuilder(n, 0)
	edges := n * avgDeg / 2
	for e := 0; e < edges; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j || g.Weight(i, j) != 0 {
			continue
		}
		w := rng.Float64()*10 + 0.01
		g.SetWeight(i, j, w)
		b.Add(i, j, w)
	}
	return g, b.Build()
}

func TestSparseMatchesDense(t *testing.T) {
	g, s := randomSparse(60, 8, 1)
	if s.Len() != 60 {
		t.Fatalf("Len = %d", s.Len())
	}
	for i := 0; i < 60; i++ {
		for j := 0; j < 60; j++ {
			if dw, sw := g.Weight(i, j), s.Weight(i, j); dw != sw {
				t.Fatalf("weight(%d,%d): dense %g sparse %g", i, j, dw, sw)
			}
		}
	}
	if dt, st := g.TotalWeight(), s.TotalWeight(); !approxEq(dt, st) {
		t.Fatalf("TotalWeight: dense %g sparse %g", dt, st)
	}
	a, b := []int{0, 5, 10, 15, 20, 25}, []int{1, 6, 11, 16, 21, 26}
	if dc, sc := g.CutWeight(a, b), s.CutWeight(a, b); !approxEq(dc, sc) {
		t.Fatalf("CutWeight: dense %g sparse %g", dc, sc)
	}
	if di, si := g.IntraWeight(a), s.IntraWeight(a); !approxEq(di, si) {
		t.Fatalf("IntraWeight: dense %g sparse %g", di, si)
	}
}

func approxEq(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

func TestSparseRowsSortedSymmetric(t *testing.T) {
	_, s := randomSparse(40, 6, 2)
	for i := 0; i < s.Len(); i++ {
		cols, wts := s.Row(i)
		for t2 := range cols {
			if t2 > 0 && cols[t2-1] >= cols[t2] {
				t.Fatalf("row %d not strictly ascending: %v", i, cols)
			}
			j := int(cols[t2])
			if back := s.Weight(j, i); back != wts[t2] {
				t.Fatalf("edge {%d,%d} asymmetric: %g vs %g", i, j, wts[t2], back)
			}
		}
	}
}

func TestBuilderTopM(t *testing.T) {
	// Node 0 offered 5 edges with distinct weights under topM=2: it retains
	// the two heaviest; lighter edges survive only via the far endpoint,
	// which has room (degree 1 each).
	b := NewBuilder(6, 2)
	weights := []float64{5, 9, 1, 7, 3}
	for j := 1; j <= 5; j++ {
		b.Add(0, j, weights[j-1])
	}
	s := b.Build()
	// Every edge survives (each far endpoint keeps its only candidate).
	for j := 1; j <= 5; j++ {
		if w := s.Weight(0, j); w != weights[j-1] {
			t.Fatalf("edge {0,%d} = %g, want %g", j, w, weights[j-1])
		}
	}

	// With the far endpoints also saturated, only the global heavy edges
	// survive: a clique on {0..3} with one heavy pair, topM=1.
	b = NewBuilder(4, 1)
	b.Add(0, 1, 100)
	b.Add(0, 2, 1)
	b.Add(0, 3, 2)
	b.Add(1, 2, 3)
	b.Add(1, 3, 4)
	b.Add(2, 3, 5)
	s = b.Build()
	if s.Weight(0, 1) != 100 {
		t.Fatal("heaviest edge dropped")
	}
	if s.Weight(0, 2) != 0 {
		t.Fatal("light edge {0,2} survived both endpoints' top-1")
	}
	// {2,3} is both 2's and 3's heaviest: kept.
	if s.Weight(2, 3) != 5 {
		t.Fatal("edge {2,3} dropped")
	}
}

func TestBuilderOrderInvariant(t *testing.T) {
	type e struct {
		i, j int
		w    float64
	}
	rng := rand.New(rand.NewSource(3))
	var edges []e
	for i := 0; i < 30; i++ {
		for j := i + 1; j < 30; j++ {
			if rng.Intn(3) == 0 {
				edges = append(edges, e{i, j, float64(rng.Intn(5) + 1)}) // ties likely
			}
		}
	}
	build := func(perm []int) *Sparse {
		b := NewBuilder(30, 3)
		for _, k := range perm {
			b.Add(edges[k].i, edges[k].j, edges[k].w)
		}
		return b.Build()
	}
	base := make([]int, len(edges))
	for i := range base {
		base[i] = i
	}
	s1 := build(base)
	for trial := 0; trial < 5; trial++ {
		perm := rng.Perm(len(edges))
		s2 := build(perm)
		for i := 0; i < 30; i++ {
			for j := i + 1; j < 30; j++ {
				if s1.Weight(i, j) != s2.Weight(i, j) {
					t.Fatalf("trial %d: edge {%d,%d} differs by insertion order: %g vs %g",
						trial, i, j, s1.Weight(i, j), s2.Weight(i, j))
				}
			}
		}
	}
}

// TestBuilderOffer: offering every edge one-sidedly in both directions
// builds exactly what Add builds, and the returned floor is 0 while the row
// has room and its lightest kept weight once full — so skipping an offer at
// or below the floor (ids ascending per row) changes nothing.
func TestBuilderOffer(t *testing.T) {
	const n, m = 30, 3
	rng := rand.New(rand.NewSource(4))
	add, offer, skip := NewBuilder(n, m), NewBuilder(n, m), NewBuilder(n, m)
	floor := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(3) != 0 {
				continue
			}
			w := float64(rng.Intn(5) + 1) // ties likely
			add.Add(i, j, w)
			offer.Offer(i, j, w)
			offer.Offer(j, i, w)
			for _, e := range [][2]int{{i, j}, {j, i}} {
				a, b := e[0], e[1]
				if w <= floor[a] {
					continue
				}
				held := len(skip.rows[a])
				floor[a] = skip.Offer(a, b, w)
				want := 0.0
				if held+1 >= m {
					want = skip.rows[a][0].w
				}
				if floor[a] != want {
					t.Fatalf("Offer(%d, %d) floor %v, want %v", a, b, floor[a], want)
				}
			}
		}
	}
	want := add.Build()
	for _, got := range []*Sparse{offer.Build(), skip.Build()} {
		for i := 0; i < n; i++ {
			gc, gw := got.Row(i)
			wc, ww := want.Row(i)
			if len(gc) != len(wc) {
				t.Fatalf("node %d: %d neighbors, Add built %d", i, len(gc), len(wc))
			}
			for k := range wc {
				if gc[k] != wc[k] || gw[k] != ww[k] {
					t.Fatalf("node %d edge %d: (%d, %v), Add built (%d, %v)", i, k, gc[k], gw[k], wc[k], ww[k])
				}
			}
		}
	}
}

func TestBuilderReset(t *testing.T) {
	b := NewBuilder(4, 0)
	b.Add(0, 1, 5)
	b.Build()
	b.Reset(3, 0)
	b.Add(1, 2, 7)
	s := b.Build()
	if s.Len() != 3 || s.Weight(1, 2) != 7 || s.Weight(0, 1) != 0 {
		t.Fatalf("reset builder leaked state: len %d", s.Len())
	}
}

func TestUpdateWeight(t *testing.T) {
	b := NewBuilder(4, 0)
	b.Add(0, 1, 5)
	b.Add(1, 2, 3)
	s := b.Build()
	if !s.UpdateWeight(0, 1, 9) {
		t.Fatal("existing edge not updated")
	}
	if s.Weight(0, 1) != 9 || s.Weight(1, 0) != 9 {
		t.Fatal("update not symmetric")
	}
	if s.UpdateWeight(0, 3, 1) {
		t.Fatal("absent edge reported updated")
	}
	if s.UpdateWeight(2, 2, 1) {
		t.Fatal("self edge reported updated")
	}
	if got := s.TotalWeight(); !approxEq(got, 12) {
		t.Fatalf("TotalWeight = %g, want 12", got)
	}
}

func TestSparseOutOfRangePanics(t *testing.T) {
	_, s := randomSparse(4, 2, 4)
	b := NewBuilder(4, 0)
	for _, f := range []func(){
		func() { s.Weight(0, 4) },
		func() { s.Row(-1) },
		func() { b.Add(0, 4, 1) },
		func() { b.Offer(-1, 0, 1) },
		func() { NewBuilder(-1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("out-of-range did not panic")
				}
			}()
			f()
		}()
	}
}

func TestDenseToSparse(t *testing.T) {
	g := randomGraph(12, 8)
	s := DenseToSparse(g, 0)
	if s.Edges() != 12*11/2 {
		t.Fatalf("Edges = %d", s.Edges())
	}
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			if g.Weight(i, j) != s.Weight(i, j) {
				t.Fatalf("weight(%d,%d) differs", i, j)
			}
		}
	}
}
