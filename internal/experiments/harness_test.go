package experiments

import (
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestClosedLoopFixedCount pins the driver under the service and
// fault-free replica policy: a fixed count per worker, every query
// sampled (failed ones included), and one wrong answer costs the row its
// Verified flag.
func TestClosedLoopFixedCount(t *testing.T) {
	const workers, per = 4, 50
	for _, wrong := range []bool{false, true} {
		// Latencies are w*per+i+1 ns, so the sample is exactly 1..200.
		row := closedLoop{workers: workers, perWorker: per, ask: func(w, i int) (int64, bool, bool) {
			return int64(w*per + i + 1), true, !wrong || w != 2 || i != 7
		}}.run(BenchResult{Kind: "service", N: 10})
		if row.Verified == wrong {
			t.Fatalf("wrong=%v: Verified=%v", wrong, row.Verified)
		}
		if row.Kind != "service" || row.N != 10 || row.Workers != workers {
			t.Fatalf("row lost its key: %+v", row)
		}
		if row.Queries != workers*per || row.P50NS != 101 || row.P99NS != 199 {
			t.Fatalf("sample: queries=%d p50=%d p99=%d, want 200, 101, 199", row.Queries, row.P50NS, row.P99NS)
		}
		if row.WallNS <= 0 || row.QPS <= 0 {
			t.Fatalf("wall=%d qps=%f", row.WallNS, row.QPS)
		}
	}
}

// TestClosedLoopUntil pins the driver under the chaos policy: the
// workers run until the script returns, a failed read fails the row
// without entering the sample, and a wrong answer fails it and does.
func TestClosedLoopUntil(t *testing.T) {
	for _, faults := range []bool{false, true} {
		var (
			asked  atomic.Int64
			mu     sync.Mutex
			sample []int64
		)
		row := closedLoop{workers: 3, until: func() {
			for asked.Load() < 2000 {
				runtime.Gosched()
			}
		}, ask: func(w, i int) (int64, bool, bool) {
			q := asked.Add(1)
			switch {
			case faults && q%10 == 0: // failed read
				return q, false, false
			case faults && q%10 == 5: // wrong answer
				mu.Lock()
				sample = append(sample, q)
				mu.Unlock()
				return q, true, false
			}
			mu.Lock()
			sample = append(sample, q)
			mu.Unlock()
			return q, true, true
		}}.run(BenchResult{Kind: "replica"})

		if row.Verified == faults {
			t.Fatalf("faults=%v: Verified=%v", faults, row.Verified)
		}
		if asked.Load() < 2000 {
			t.Fatalf("loop stopped after %d queries, before the script returned", asked.Load())
		}
		slices.Sort(sample)
		if row.Queries != int64(len(sample)) || row.P50NS != sample[len(sample)/2] || row.P99NS != sample[len(sample)*99/100] {
			t.Fatalf("faults=%v: queries=%d p50=%d p99=%d, want %d, %d, %d", faults, row.Queries, row.P50NS, row.P99NS,
				len(sample), sample[len(sample)/2], sample[len(sample)*99/100])
		}
		if faults && row.Queries >= asked.Load() {
			t.Fatalf("failed reads entered the sample: %d sampled of %d asked", row.Queries, asked.Load())
		}
		if row.P50NS > row.P99NS {
			t.Fatalf("p50 %d > p99 %d", row.P50NS, row.P99NS)
		}
	}
}

// TestBenchTableGated pins that every bench in the table has a committed
// baseline and a CI step that regenerates it gated against that
// baseline: -bench NAME with -bench-baseline BENCH_NAME.json.
func TestBenchTableGated(t *testing.T) {
	root := filepath.Join("..", "..")
	ci, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	for name := range Benches() {
		file := "BENCH_" + name + ".json"
		if rows, err := ReadBench(filepath.Join(root, file)); err != nil || len(rows) == 0 {
			t.Errorf("bench %s: committed %s unreadable or empty: %v", name, file, err)
		}
		gated := false
		for _, line := range strings.Split(string(ci), "\n") {
			args := strings.Fields(line)
			if !slices.Contains(args, "./cmd/experiments") {
				continue
			}
			runs, vs := false, false
			for i := 0; i+1 < len(args); i++ {
				runs = runs || args[i] == "-bench" && args[i+1] == name
				vs = vs || args[i] == "-bench-baseline" && args[i+1] == file
			}
			gated = gated || runs && vs
		}
		if !gated {
			t.Errorf("bench %s: no CI step runs -bench %s -bench-baseline %s", name, name, file)
		}
	}
}

// TestOracleGate pins the oracle entry's speedup floor: it applies to a
// run that measured n = 10⁶ and only then, and a slow, unverified or
// missing 8-worker row there fails it.
func TestOracleGate(t *testing.T) {
	rows := func(speedup float64, verified bool, workers ...int) []BenchResult {
		var out []BenchResult
		for _, w := range workers {
			r := row("oracle", oracleFloorN, w, 1e9, 200)
			if w > 1 {
				r.Speedup, r.Verified = speedup, verified
			}
			out = append(out, r)
		}
		return out
	}
	if err := oracleGate([]BenchResult{row("oracle", 10_000, 8, 1e7, 200)}); err != nil {
		t.Fatalf("smoke sweep gated: %v", err)
	}
	if err := oracleGate(rows(3.1, true, 1, 4, 8)); err != nil {
		t.Fatalf("3.1x verified run failed the floor: %v", err)
	}
	for name, rs := range map[string][]BenchResult{
		"slow":       rows(2.4, true, 1, 4, 8),
		"unverified": rows(3.1, false, 1, 4, 8),
		"missing":    rows(3.1, true, 1, 4),
	} {
		if err := oracleGate(rs); err == nil {
			t.Errorf("%s 8-worker row passed the floor", name)
		}
	}
}
