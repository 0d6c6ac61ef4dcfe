package experiments

import (
	"path/filepath"
	"testing"
)

func row(kind string, n, workers int, wallNS int64, allocs uint64) BenchResult {
	return BenchResult{Kind: kind, Scheme: "core", Family: "random",
		N: n, Workers: workers, WallNS: wallNS, Allocs: allocs, Verified: true}
}

func TestCompareBaseline(t *testing.T) {
	base := []BenchResult{
		row("oracle", 10000, 1, 40e6, 200),
		row("oracle", 100000, 1, 500e6, 300),
		row("dynamic", 10000, 1, 1500, 5), // micro-row: wall too small to gate
	}
	// with is the baseline run with one row's measurement replaced.
	with := func(r BenchResult) []BenchResult {
		cur := append([]BenchResult(nil), base...)
		for i := range cur {
			if cur[i].Key() == r.Key() {
				cur[i] = r
			}
		}
		return cur
	}
	// Identical run: clean.
	if regs := CompareBaseline(base, base, 2.0); len(regs) != 0 {
		t.Fatalf("self-comparison regressed: %v", regs)
	}
	// Mild drift under the factors: clean (wall gets machine headroom
	// 2x on top of the 2x factor — a cross-machine offset is not a
	// regression).
	cur := with(row("oracle", 10000, 1, 150e6, 390))
	if regs := CompareBaseline(cur, base, 2.0); len(regs) != 0 {
		t.Fatalf("in-budget drift flagged: %v", regs)
	}
	// Wall blow-up past factor*headroom: flagged.
	cur = with(row("oracle", 10000, 1, 170e6, 200))
	if regs := CompareBaseline(cur, base, 2.0); len(regs) != 1 {
		t.Fatalf("4.25x wall regression not flagged: %v", regs)
	}
	// Alloc blow-up: flagged.
	cur = with(row("oracle", 10000, 1, 40e6, 500))
	if regs := CompareBaseline(cur, base, 2.0); len(regs) != 1 {
		t.Fatalf("2.5x alloc regression not flagged: %v", regs)
	}
	// Lost verification: flagged.
	bad := row("oracle", 10000, 1, 40e6, 200)
	bad.Verified = false
	if regs := CompareBaseline(with(bad), base, 2.0); len(regs) != 1 {
		t.Fatalf("lost verification not flagged: %v", regs)
	}
	// Micro-row wall jitter: ignored (allocs still gated).
	cur = with(row("dynamic", 10000, 1, 90000, 5))
	if regs := CompareBaseline(cur, base, 2.0); len(regs) != 0 {
		t.Fatalf("micro-row wall jitter flagged: %v", regs)
	}
	// A current row at a size the baseline lacks, with the baseline's
	// sizes skipped entirely (a -sizes smoke run): ignored.
	cur = []BenchResult{row("oracle", 1000000, 4, 1e9, 999)}
	if regs := CompareBaseline(cur, base, 2.0); len(regs) != 0 {
		t.Fatalf("unmatched row flagged: %v", regs)
	}
}

// TestCompareBaselineMissingRows pins that a baseline row cannot vanish
// silently: dropped or renamed at a size the run did measure, it is a
// regression; at a size the run skipped, it is not.
func TestCompareBaselineMissingRows(t *testing.T) {
	base := []BenchResult{
		row("oracle", 10000, 1, 40e6, 200),
		row("oracle", 10000, 4, 20e6, 250),
		row("oracle", 100000, 1, 500e6, 300),
	}
	// Dropped: the 4-worker row at n=10⁴ is gone while its sibling ran.
	dropped := []BenchResult{base[0], base[2]}
	if regs := CompareBaseline(dropped, base, 2.0); len(regs) != 1 {
		t.Fatalf("dropped row not flagged exactly once: %v", regs)
	}
	// Renamed: the same measurement under a new scheme name leaves the
	// baseline key unmatched.
	renamed := []BenchResult{base[0], base[1], base[2]}
	renamed[1].Scheme = "core-v2"
	if regs := CompareBaseline(renamed, base, 2.0); len(regs) != 1 {
		t.Fatalf("renamed row not flagged exactly once: %v", regs)
	}
	// A smoke run at n=10⁴ only: the n=10⁵ row is out of scope.
	if regs := CompareBaseline(base[:2], base, 2.0); len(regs) != 0 {
		t.Fatalf("skipped size flagged: %v", regs)
	}
}

func TestBenchRoundTrip(t *testing.T) {
	rows := []BenchResult{
		row("oracle", 10000, 1, 40e6, 200),
		row("sim", 1024, 2, 10e6, 50),
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := WriteBench(path, rows); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBench(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(rows) {
		t.Fatalf("round-trip %d rows, want %d", len(back), len(rows))
	}
	for i := range rows {
		if back[i] != rows[i] {
			t.Fatalf("row %d round-trips to %+v, want %+v", i, back[i], rows[i])
		}
	}
}
