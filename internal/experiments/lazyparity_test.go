package experiments

import (
	"testing"

	"symbiosched/internal/workload"
)

// TestEagerLazyCampaignParity runs the full two-phase methodology — phase-1
// signature gathering with majority vote, then every candidate mapping to
// completion — under both capture modes and requires bit-identical outcomes:
// same chosen mapping, same candidate set, same per-process user cycles.
// This is the end-to-end guarantee that the lazy signature path (copy-on-
// write filter versions, deferred materialization, memoized reads) changes
// when symbiosis vectors are computed but never what they contain.
func TestEagerLazyCampaignParity(t *testing.T) {
	names := []string{"mcf", "libquantum", "povray", "gobmk"}
	var mix []workload.Profile
	for _, n := range names {
		p, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		mix = append(mix, p)
	}

	run := func(eager bool) MixOutcome {
		c := Quick()
		c.Workers = 1
		sig := c.EngineConfig().Signature
		sig.EagerCapture = eager
		c.Signature = &sig
		return c.RunMix(mix, mustPolicy(), c.candidatesFor(mix), nil)
	}
	lazy := run(false)
	eager := run(true)

	if !lazy.Chosen.Equal(eager.Chosen) {
		t.Fatalf("chosen mapping diverged: lazy %v, eager %v", lazy.Chosen, eager.Chosen)
	}
	if lazy.ChosenIdx != eager.ChosenIdx {
		t.Fatalf("chosen index diverged: lazy %d, eager %d", lazy.ChosenIdx, eager.ChosenIdx)
	}
	if len(lazy.Candidates) != len(eager.Candidates) {
		t.Fatalf("candidate count diverged: lazy %d, eager %d",
			len(lazy.Candidates), len(eager.Candidates))
	}
	for i := range lazy.Candidates {
		lc, ec := lazy.Candidates[i], eager.Candidates[i]
		if !lc.Mapping.Equal(ec.Mapping) {
			t.Fatalf("candidate %d mapping diverged: lazy %v, eager %v", i, lc.Mapping, ec.Mapping)
		}
		for p := range lc.UserCycles {
			if lc.UserCycles[p] != ec.UserCycles[p] {
				t.Fatalf("candidate %d proc %d user cycles diverged: lazy %d, eager %d",
					i, p, lc.UserCycles[p], ec.UserCycles[p])
			}
		}
	}
}
