package experiments

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mstadvice/internal/bitstring"
	"mstadvice/internal/graph"
	"mstadvice/internal/mst"
)

// Bench is one entry of the bench table: Run measures the rows, and
// Gate, when set, is the bench's own pass/fail check on top of the
// CompareBaseline gate every bench gets.
type Bench struct {
	Run  func(Config) []BenchResult
	Gate func([]BenchResult) error
}

// Benches maps each bench name to its entry. cmd/experiments -bench
// NAME runs Benches()[NAME] and writes the rows to BENCH_<NAME>.json;
// Registry is the same table for the experiments' text tables.
func Benches() map[string]Bench {
	return map[string]Bench{
		"sim":     {Run: SimBench},
		"oracle":  {Run: OracleBench, Gate: oracleGate},
		"service": {Run: ServiceBench},
		"async":   {Run: AsyncBench},
		"topo":    {Run: TopoBench},
		"hier":    {Run: HierBench},
		"replica": {Run: ReplicaBench},
		"obs":     {Run: ObsBench},
	}
}

// The oracle bench's scaling gate: a run that measured the n = 10⁶ rows
// fails unless their 8-worker speedup reaches 2.5× (CheckSpeedupFloor).
// Smaller sweeps, such as the -sizes 10000 smoke, are not gated.
const (
	oracleFloorN       = 1_000_000
	oracleFloorWorkers = 8
	oracleSpeedupFloor = 2.5
)

func oracleGate(rows []BenchResult) error {
	for _, r := range rows {
		if r.Kind == "oracle" && r.N == oracleFloorN {
			return CheckSpeedupFloor(rows, oracleFloorWorkers, oracleSpeedupFloor)
		}
	}
	return nil
}

// measure times one segment: its wall time plus the process-global
// Mallocs and TotalAlloc deltas around it. Every bench stage is timed
// through it, so a row's alloc columns cover exactly its segment.
func measure(f func()) (wallNS int64, allocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	f()
	wallNS = time.Since(start).Nanoseconds()
	runtime.ReadMemStats(&after)
	return wallNS, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// closedLoop is the query driver of the service and replica rows:
// each worker goroutine issues its next query as soon as the previous
// one returns, so QPS measures the server, not a pacing model.
type closedLoop struct {
	workers int
	// perWorker is each worker's fixed query count. The latency buffers
	// are sized for it before the measured window opens.
	perWorker int
	// until, when set, replaces the fixed count: it runs on the calling
	// goroutine and the workers loop until it returns.
	until func()
	// ask issues worker w's i-th query and checks the answer. It returns
	// the query's latency (the request alone, not the check), whether
	// that latency enters the row's sample, and whether the answer met
	// the row's contract.
	ask func(w, i int) (latNS int64, sampled, ok bool)
}

// queriesPerWorker splits a query budget over the workers; a tiny
// budget still measures one query per worker.
func queriesPerWorker(queries, workers int) int {
	return max(queries/workers, 1)
}

// run drives the loop and returns base with Workers, Queries (the
// latency sample's size), WallNS, QPS, P50NS, P99NS, the alloc columns
// of the measured loop, and Verified = every query met the contract.
func (l closedLoop) run(base BenchResult) BenchResult {
	lat := make([][]int64, l.workers)
	for w := range lat {
		lat[w] = make([]int64, 0, l.perWorker)
	}
	var bad atomic.Int64
	var stop atomic.Bool
	fixed := l.until == nil
	wall, allocs, bytes := measure(func() {
		var wg sync.WaitGroup
		for w := 0; w < l.workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				sample := lat[w]
				for i := 0; fixed && i < l.perWorker || !fixed && !stop.Load(); i++ {
					d, sampled, ok := l.ask(w, i)
					if sampled {
						sample = append(sample, d)
					}
					if !ok {
						bad.Add(1)
					}
				}
				lat[w] = sample
			}(w)
		}
		if !fixed {
			l.until()
			stop.Store(true)
		}
		wg.Wait()
	})

	all := slices.Concat(lat...)
	slices.Sort(all)
	row := base
	row.Workers = l.workers
	row.Queries = int64(len(all))
	row.WallNS = wall
	row.Allocs, row.AllocBytes = allocs, bytes
	if len(all) > 0 {
		row.QPS = float64(len(all)) / (float64(wall) / 1e9)
		row.P50NS = all[len(all)/2]
		row.P99NS = all[len(all)*99/100]
		row.AllocsPerQuery = float64(allocs) / float64(len(all))
	}
	row.Verified = bad.Load() == 0
	return row
}

// adviceEqual reports whether two advice sets are byte-identical.
func adviceEqual(a, b []*bitstring.BitString) bool {
	return slices.EqualFunc(a, b, (*bitstring.BitString).Equal)
}

// nonTreeEdge returns g's lowest-numbered edge outside its minimum
// spanning tree — the edge the churn writers re-weight, so every update
// keeps the tree — or -1 when g is a tree.
func nonTreeEdge(g *graph.Graph) graph.EdgeID {
	tree, err := mst.Kruskal(g)
	if err != nil {
		panic(err)
	}
	inTree := make([]bool, g.M())
	for _, e := range tree {
		inTree[e] = true
	}
	if e := slices.Index(inTree, false); e >= 0 {
		return graph.EdgeID(e)
	}
	return -1
}
