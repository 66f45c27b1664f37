package alloc

import (
	"math/rand"
	"testing"

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
// Overlap shorter or longer than Symbiosis, and overlap values from a range
// small enough that equal weights are common.
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
		v.Overlap[c] = int32(rng.Intn(5)) - 1
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
