package experiments

import (
	"testing"

	"symbiosched/internal/alloc"
)

// TestOutcomeDigestCoversEveryCandidate moves each candidate's user and
// wall cycles one at a time: the digest must move with every one of them,
// not only with the chosen mapping or the reduced percentages.
func TestOutcomeDigestCoversEveryCandidate(t *testing.T) {
	o := []MixOutcome{{
		Names: []string{"a", "b"}, Chosen: alloc.Mapping{0, 1}, ChosenIdx: 1,
		Candidates: []MixResult{
			{Mapping: alloc.Mapping{0, 0}, UserCycles: []uint64{10, 20}, WallCycles: 30},
			{Mapping: alloc.Mapping{0, 1}, UserCycles: []uint64{7, 9}, WallCycles: 12},
		},
	}}
	base := OutcomeDigest(o)
	for i := range o[0].Candidates {
		c := &o[0].Candidates[i]
		for p := range c.UserCycles {
			c.UserCycles[p]++
			if OutcomeDigest(o) == base {
				t.Errorf("digest ignores candidate %d's user cycles of process %d", i, p)
			}
			c.UserCycles[p]--
		}
		c.WallCycles++
		if OutcomeDigest(o) == base {
			t.Errorf("digest ignores candidate %d's wall cycles", i)
		}
		c.WallCycles--
	}
	if OutcomeDigest(o) != base {
		t.Fatal("digest is not a pure function of the outcomes")
	}
}

// TestOutcomeDigestIgnoresWorkers runs one small sweep at two worker counts:
// execution parameters must not reach the digest.
func TestOutcomeDigestIgnoresWorkers(t *testing.T) {
	pool := mixProfiles(t, "povray", "hmmer")
	digest := func(workers int) string {
		c := Quick()
		c.Workers = workers
		s, err := c.SweepShard(pool, alloc.WeightedInterferenceGraph{}, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		return OutcomeDigest(s.Outcomes)
	}
	if a, b := digest(1), digest(3); a != b {
		t.Fatalf("digest depends on the worker count: %s at 1 worker, %s at 3", a, b)
	}
}
