package experiments

import (
	"math"

	"symbiosched/internal/engine"
	"symbiosched/internal/kernel"
	"symbiosched/internal/metrics"
	"symbiosched/internal/workload"
)

// FairnessResult quantifies the fairness dimension the paper lists among its
// goals ("provide fairness across workloads", §1, keywords): for each
// candidate mapping of the canonical mix, the per-process slowdown relative
// to a standalone run and Jain's fairness index over the reciprocal
// slowdowns. A contention-oblivious mapping lets one process absorb all the
// damage (low fairness); the symbiotic mapping spreads residual contention.
type FairnessResult struct {
	Names []string
	Rows  []FairnessRow
}

// FairnessRow is one mapping's outcome.
type FairnessRow struct {
	Mapping   []int
	Label     string
	Slowdowns []float64 // per-process paired/standalone user time
	Jain      float64   // Jain's index over 1/slowdown, in (1/n, 1]
	Chosen    bool
}

// Table renders the study.
func (r FairnessResult) Table() metrics.Table {
	t := metrics.Table{
		Title:   "Fairness study: per-process slowdown vs standalone and Jain index per mapping (* = chosen)",
		Headers: append(append([]string{"mapping"}, r.Names...), "Jain"),
	}
	for _, row := range r.Rows {
		label := row.Label
		if row.Chosen {
			label = "*" + label
		}
		cells := []interface{}{label}
		for _, s := range row.Slowdowns {
			cells = append(cells, metrics.Pct(s-1))
		}
		cells = append(cells, row.Jain)
		t.AddRow(cells...)
	}
	return t
}

// JainIndex returns (Σx)² / (n·Σx²) — 1.0 when all allocations are equal.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += float64(x * x) // rounded: no fused multiply-add on any GOARCH
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// Fairness runs the canonical mix's candidate mappings, computing slowdowns
// against standalone runs and the fairness index of each mapping, and marks
// the mapping the weighted interference graph chooses.
func Fairness(c Config) FairnessResult {
	names := CanonicalMix()
	var mix []workload.Profile
	for _, n := range names {
		p, err := workload.ByName(n)
		if err != nil {
			panic(err)
		}
		mix = append(mix, p)
	}

	// Standalone baselines.
	standalone := make([]uint64, len(mix))
	c.parallel(len(mix), func(i int) {
		procs := kernel.Workload(mix[i:i+1], c.Seed, c.Scale())
		m := engine.New(c.EngineConfig(), procs)
		m.SetAffinities([]int{0})
		m.Run(engine.RunOptions{})
		standalone[i] = procs[0].CompletionUser()
	})

	chosen := c.Phase1(mix, mustPolicy(), nil)
	cands := c.candidatesFor(mix)

	res := FairnessResult{Names: names}
	rows := make([]FairnessRow, len(cands))
	c.parallel(len(cands), func(i int) {
		out := c.RunMapping(mix, cands[i], nil)
		row := FairnessRow{
			Mapping: cands[i],
			Label:   MappingLabel(cands[i]),
			Chosen:  cands[i].Key() == chosen.Key(),
		}
		var speeds []float64
		for p, u := range out.UserCycles {
			slow := float64(u) / math.Max(1, float64(standalone[p]))
			row.Slowdowns = append(row.Slowdowns, slow)
			speeds = append(speeds, 1/slow)
		}
		row.Jain = JainIndex(speeds)
		rows[i] = row
	})
	res.Rows = rows
	return res
}
