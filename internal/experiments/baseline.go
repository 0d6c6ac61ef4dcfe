package experiments

import (
	"encoding/json"
	"fmt"
	"os"
)

// WriteBench writes benchmark rows as indented JSON, the format of the
// committed BENCH_sim.json / BENCH_oracle.json baselines.
func WriteBench(path string, rows []BenchResult) error {
	blob, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	return os.WriteFile(path, blob, 0o644)
}

// ReadBench reads rows written by WriteBench.
func ReadBench(path string) ([]BenchResult, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rows []BenchResult
	if err := json.Unmarshal(blob, &rows); err != nil {
		return nil, fmt.Errorf("experiments: parsing %s: %w", path, err)
	}
	return rows, nil
}

// minStableWallNS is the floor below which wall-clock comparisons are
// skipped: micro-rows (e.g. the ~µs incremental-advice path) jitter far
// more than any real regression and would make the CI gate flaky.
const minStableWallNS = 10_000_000 // 10 ms

// wallMachineHeadroom multiplies the wall-clock threshold on top of
// maxFactor. The committed baseline is recorded on one machine and
// replayed on another (a CI runner under unknown load), so raw wall
// time carries a machine-to-machine offset that allocation counts do
// not; the headroom keeps the gate deterministic while still catching
// order-of-magnitude slowdowns. Allocation counts are gated at the
// bare maxFactor — they are the reliable tripwire for the regressions
// this suite guards against (a reintroduced per-node map or a lost
// arena shows up as a 100-1000x alloc jump).
const wallMachineHeadroom = 2.0

// CompareBaseline checks freshly measured rows against a committed
// baseline and returns one message per regression (empty slice = pass).
// Rows are matched by BenchKey (kind, scheme, family, n, workers). A
// baseline row missing from the current run is a regression when the
// run measured any row at that row's n — a dropped or renamed row
// cannot pass silently — while sizes the run skipped entirely (a
// -sizes smoke run) are not. Current rows absent from the baseline are
// ignored. A row regresses when either stage's allocation count (Allocs,
// and GenAllocs for oracle rows) exceeds maxFactor times the baseline,
// when either stage's wall time (if the baseline wall is large enough
// to be stable) exceeds maxFactor·wallMachineHeadroom times the
// baseline, or when it lost its Verified flag.
func CompareBaseline(current, baseline []BenchResult, maxFactor float64) []string {
	base := make(map[BenchKey]BenchResult, len(baseline))
	for _, r := range baseline {
		base[r.Key()] = r
	}
	wallFactor := maxFactor * wallMachineHeadroom
	var regressions []string
	measured := make(map[BenchKey]bool, len(current))
	sizes := make(map[int]bool)
	for _, r := range current {
		measured[r.Key()] = true
		sizes[r.N] = true
	}
	for _, b := range baseline {
		if sizes[b.N] && !measured[b.Key()] {
			regressions = append(regressions, fmt.Sprintf("%s/%s/%s n=%d workers=%d: baseline row missing from this run",
				b.Kind, b.Scheme, b.Family, b.N, b.Workers))
		}
	}
	for _, r := range current {
		b, ok := base[r.Key()]
		if !ok {
			continue
		}
		name := fmt.Sprintf("%s/%s/%s n=%d workers=%d", r.Kind, r.Scheme, r.Family, r.N, r.Workers)
		if !r.Verified && b.Verified {
			regressions = append(regressions, fmt.Sprintf("%s: lost verification", name))
		}
		if b.WallNS >= minStableWallNS && float64(r.WallNS) > wallFactor*float64(b.WallNS) {
			regressions = append(regressions, fmt.Sprintf("%s: wall %.1fms > %.1fx baseline %.1fms",
				name, float64(r.WallNS)/1e6, wallFactor, float64(b.WallNS)/1e6))
		}
		if b.Allocs > 0 && float64(r.Allocs) > maxFactor*float64(b.Allocs) {
			regressions = append(regressions, fmt.Sprintf("%s: allocs %d > %.1fx baseline %d",
				name, r.Allocs, maxFactor, b.Allocs))
		}
		// Oracle rows carry the generate+build stage separately; gate it
		// too — a reintroduced per-edge map shows up here, not in the
		// decompose+encode columns.
		if b.GenNS >= minStableWallNS && float64(r.GenNS) > wallFactor*float64(b.GenNS) {
			regressions = append(regressions, fmt.Sprintf("%s: gen wall %.1fms > %.1fx baseline %.1fms",
				name, float64(r.GenNS)/1e6, wallFactor, float64(b.GenNS)/1e6))
		}
		if b.GenAllocs > 0 && float64(r.GenAllocs) > maxFactor*float64(b.GenAllocs) {
			regressions = append(regressions, fmt.Sprintf("%s: gen allocs %d > %.1fx baseline %d",
				name, r.GenAllocs, maxFactor, b.GenAllocs))
		}
	}
	return regressions
}
