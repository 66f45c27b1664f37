package alloc

import (
	"math"

	"symbiosched/internal/kernel"
)

// OverlapTable is PairWeight laid out for scanning: the §3.3.3 directed
// terms of a live thread population, stored column-major by core label and
// indexed by graph node id. Scoring one view against every slot through
// PairWeight follows two View pointers and two slice headers per partner;
// the table turns the same scan into three int32 reads per slot (the slot's
// core label and its directed term toward the scored view's core, both
// sequential, and the view's own term toward the slot's core), which is
// what makes the churn driver's per-arrival top-m selection cheap at P in
// the thousands.
//
// A slot's weight against a view is bit-identical to PairWeight: every
// directedTerm edge case (no signature, a core label outside the vectors,
// Overlap shorter than Symbiosis) becomes a zero table entry, and the two
// int32 terms are summed exactly.
type OverlapTable struct {
	// cols[c][u] is directedTerm(slot u, c): slot u's Overlap toward core c,
	// or 0 when u is dead, signatureless or its vectors stop short of c.
	cols [][]int32
	// zero stands in for the column of a core label no slot reaches.
	zero []int32
	// last[u] is slot u's LastCore, or -1 for a dead slot or a negative
	// label. A -1 slot contributes no term of the scored view.
	last []int32
}

// Reset empties the table to n dead slots, reusing its storage when it is
// large enough. Filling a table through Reset and then Set allocates each
// column once, where growing it one Set at a time would reallocate it as
// the id space grows.
func (t *OverlapTable) Reset(n int) {
	t.last = t.last[:0]
	t.zero = t.zero[:0]
	for c := range t.cols {
		t.cols[c] = t.cols[c][:0]
	}
	t.grow(n)
}

// Set stores thread v's directed terms in slot id, growing the table as
// needed. It replaces whatever the slot held, so a reused id inherits
// nothing.
func (t *OverlapTable) Set(id int, v *kernel.View) {
	t.grow(id + 1)
	terms := sigTerms(v)
	for len(t.cols) < len(terms) {
		t.cols = append(t.cols, make([]int32, len(t.last), cap(t.last)))
	}
	for c, col := range t.cols {
		var x int32
		if c < len(terms) {
			x = terms[c]
		}
		col[id] = x
	}
	t.last[id] = -1
	if v.LastCore >= 0 && v.LastCore <= math.MaxInt32 {
		t.last[id] = int32(v.LastCore)
	}
}

// Clear marks slot id dead: it scores zero against every view and so never
// becomes a partner.
func (t *OverlapTable) Clear(id int) {
	if id >= len(t.last) {
		return
	}
	for _, col := range t.cols {
		col[id] = 0
	}
	t.last[id] = -1
}

// grow extends every column to n slots; new slots are dead.
func (t *OverlapTable) grow(n int) {
	old := len(t.last)
	if n <= old {
		return
	}
	t.last = extend(t.last, n)
	for u := old; u < n; u++ {
		t.last[u] = -1
	}
	t.zero = extend(t.zero, n)
	for c := range t.cols {
		t.cols[c] = extend(t.cols[c], n)
	}
}

// extend returns s lengthened to n with the new entries zeroed. Short of
// capacity it reallocates with an eighth of headroom rather than append's
// doubling: the table is a second copy of every live thread's Overlap
// vector, and ids past the initial population arrive a few at a time.
func extend(s []int32, n int) []int32 {
	old := len(s)
	if n > cap(s) {
		grown := make([]int32, n, n+n/8)
		copy(grown, s)
		return grown
	}
	s = s[:n]
	clear(s[old:])
	return s
}

// sigTerms returns the prefix of v.Overlap that directedTerm reads: empty
// without a signature, cut at the shorter of Symbiosis and Overlap.
func sigTerms(v *kernel.View) []int32 {
	if !v.HasSig {
		return nil
	}
	n := len(v.Overlap)
	if len(v.Symbiosis) < n {
		n = len(v.Symbiosis)
	}
	return v.Overlap[:n]
}

// TopPartners scores view against every slot in one pass and returns the m
// heaviest positive-weight partners, ordered by weight descending and then
// id ascending — the order the builder's top-m sparsification keeps. The
// results are appended to nbrs[:0] and wts[:0], so callers can pass the
// previous call's slices back in to stay allocation-free. A slot holding
// view itself is scored like any other.
func (t *OverlapTable) TopPartners(view *kernel.View, m int, nbrs []int32, wts []float64) ([]int32, []float64) {
	nbrs, wts = nbrs[:0], wts[:0]
	if m <= 0 {
		return nbrs, wts
	}
	own := sigTerms(view)
	col := t.zero
	if c := view.LastCore; c >= 0 && c < len(t.cols) {
		col = t.cols[c]
	}
	col = col[:len(t.last)]
	// Weights are summed as integers: both terms are int32, so PairWeight's
	// float64(a) + float64(b) is exact and equals float64(a + b) bit for bit.
	// floor is the weight a slot must beat: zero until the buffer holds m
	// partners, then the lightest of them. Since ids arrive ascending, an
	// equal weight already held ranks ahead of u, so ties never enter.
	var floor int64
	for u, c := range t.last {
		w := int64(col[u])
		if uint(c) < uint(len(own)) {
			w += int64(own[c])
		}
		if w <= floor {
			continue
		}
		n := len(nbrs)
		if n == m {
			n--
		} else {
			nbrs, wts = append(nbrs, 0), append(wts, 0)
		}
		fw := float64(w)
		for ; n > 0 && wts[n-1] < fw; n-- {
			nbrs[n], wts[n] = nbrs[n-1], wts[n-1]
		}
		nbrs[n], wts[n] = int32(u), fw
		if len(wts) == m {
			floor = int64(wts[m-1])
		}
	}
	return nbrs, wts
}
