package experiments

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"mstadvice/internal/bitstring"
	"mstadvice/internal/core"
	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
	"mstadvice/internal/service"
	"mstadvice/internal/store"
)

// serviceBenchQueries is the default closed-loop size: large enough that
// the wall time clears the baseline gate's 10ms stability floor on any
// machine, small enough that the whole bench stays a CI smoke step.
const serviceBenchQueries = 200_000

// ServiceBench is the load generator for the advice-serving layer
// (BENCH_service.json): it builds one oracle run per configured size,
// round-trips it through the store codec, registers it with an
// AdviceService, and drives closed-loop query workers against the
// service — each worker issues its next query as soon as the previous
// answer returns, so QPS measures the service, not a pacing model.
//
// Rows per size:
//
//	store-roundtrip      Save+Load wall/allocs, file size, bit-identity
//	advice-query         workers ∈ {1, 4, GOMAXPROCS}: QPS, p50/p99
//	                     latency, allocs/query; Verified = every reply
//	                     byte-identical to the fresh oracle run
//	advice-query-churn   4 readers overlapped with a writer applying
//	                     batched updates; Verified additionally requires
//	                     the final epoch to match an oracle rerun on the
//	                     final graph
//
// Sizes come from the config (nil means n = 10⁵, the acceptance-test
// scale); Config.Queries overrides the per-row query count.
func ServiceBench(c Config) []BenchResult {
	sizes := c.Sizes
	if sizes == nil {
		sizes = []int{100_000}
	}
	queries := c.Queries
	if queries <= 0 {
		queries = serviceBenchQueries
	}
	var out []BenchResult
	for _, n := range sizes {
		out = append(out, serviceBenchAt(c, n, queries)...)
	}
	return out
}

func serviceBenchAt(c Config, n, queries int) []BenchResult {
	g := gen.RandomConnected(n, 3*n, c.seed(int64(n)+271), gen.SeededOptions{Weights: gen.WeightsDistinct})
	fresh, err := core.BuildAdvice(g, 0, core.DefaultCap)
	if err != nil {
		panic(err)
	}

	base := BenchResult{Kind: "service", Family: "random", N: g.N(), M: g.M()}
	var out []BenchResult

	// Store round-trip: save + load, bit-identity of graph and advice.
	dir, err := os.MkdirTemp("", "mstadvice-bench-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "run.mstadv")
	// The row claims Workers: 1, and the graph rebuild on load sizes its
	// worker pool by GOMAXPROCS: run the segment on one P, the
	// configuration the row (and its alloc baseline) claims.
	var snap *store.Snapshot
	prevProcs := runtime.GOMAXPROCS(1)
	wall, allocs, bytes := measure(func() {
		if err = store.Save(path, &store.Snapshot{Graph: g, Root: 0, Cap: core.DefaultCap, Advice: fresh}); err == nil {
			snap, err = store.OpenMapped(path)
		}
	})
	runtime.GOMAXPROCS(prevProcs)
	if err != nil {
		panic(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		panic(err)
	}
	storeRow := base
	storeRow.Scheme = "store-roundtrip"
	storeRow.Workers = 1
	storeRow.WallNS = wall
	storeRow.Allocs = allocs
	storeRow.AllocBytes = bytes
	storeRow.Bytes = st.Size()
	storeRow.Verified = graph.Equal(g, snap.Graph) == nil && adviceEqual(fresh, snap.Advice)
	out = append(out, storeRow)

	// Serve the reloaded snapshot, never the in-memory original: the
	// query rows certify the full disk round trip.
	svc := service.New()
	const graphID = "bench"
	if err := svc.Register(graphID, snap); err != nil {
		panic(err)
	}

	// Every reply must be well-formed and, against a fixed epoch,
	// byte-identical to the fresh oracle run (ref == nil accepts any
	// reply: mid-churn every epoch's answer is plausible).
	query := func(workers int, ref []*bitstring.BitString) closedLoop {
		per, nodes := queriesPerWorker(queries, workers), g.N()
		return closedLoop{workers: workers, perWorker: per, ask: func(w, i int) (int64, bool, bool) {
			node := (w*per + i*7919) % nodes
			q0 := time.Now()
			bits, _, err := svc.AdviceBits(graphID, node)
			lat := time.Since(q0).Nanoseconds()
			return lat, true, err == nil && bits != nil && (ref == nil || bits.Equal(ref[node]))
		}}
	}

	var seqWall int64
	for _, workers := range benchWorkers() {
		q0 := svcQueries(svc)
		row := query(workers, fresh).run(base)
		row.Scheme = "advice-query"
		// Metrics-vs-truth cross-check: the server's query counter must
		// have moved by exactly the number of answers the clients got.
		row.Verified = row.Verified && svcQueries(svc)-q0 == uint64(row.Queries)
		if workers == 1 {
			seqWall = row.WallNS
		} else if row.WallNS > 0 {
			row.Speedup = float64(seqWall) / float64(row.WallNS)
		}
		out = append(out, row)
	}

	// Churn row: 4 readers racing a writer that publishes epochs via
	// batched weight updates. Readers only check reply well-formedness
	// (any reply is plausible mid-churn); the epoch-level byte-identity
	// is asserted against the final graph below. The writer runs until
	// the readers finish; the number of epochs it published lands in
	// the row's Rounds column, so the baseline records how much write
	// pressure the read numbers absorbed. Its first update is a warmup
	// outside the timed window — it pays the lazy advisor build (a full
	// oracle + sensitivity run), which would otherwise eat the whole
	// read window and publish zero epochs.
	stop := make(chan struct{})
	updates := 0
	var churnWG sync.WaitGroup
	if target := nonTreeEdge(g); target >= 0 {
		w := g.Weight(target)
		warmup := graph.Batch{Weights: []graph.WeightUpdate{{Edge: target, W: w + 1}}}
		if _, err := svc.Update(context.Background(), graphID, warmup); err != nil {
			panic(err)
		}
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				b := graph.Batch{Weights: []graph.WeightUpdate{{Edge: target, W: w + graph.Weight(2+updates%2)}}}
				if _, err := svc.Update(context.Background(), graphID, b); err != nil {
					panic(err)
				}
				updates++
			}
		}()
	}
	q0 := svcQueries(svc)
	churnRow := query(4, nil).run(base)
	close(stop)
	churnWG.Wait()
	churnRow.Scheme = "advice-query-churn"
	churnRow.Rounds = updates
	churnRow.Verified = churnRow.Verified && svcQueries(svc)-q0 == uint64(churnRow.Queries)
	// The writer's allocations (graph clone + advice copy per published
	// epoch) land in this row's counters, and the number of epochs the
	// writer manages to publish depends on how many cores the host gives
	// it — so, unlike every other row, the alloc columns here are not
	// machine-independent and must not feed the CompareBaseline gate
	// (a zero baseline is skipped by its b.Allocs > 0 guard). Rounds
	// still records the epoch count for the human reader.
	churnRow.Allocs, churnRow.AllocBytes, churnRow.AllocsPerQuery = 0, 0, 0
	ep, err := svc.Epoch(graphID)
	if err != nil {
		panic(err)
	}
	final, err := core.BuildAdvice(ep.Graph, 0, core.DefaultCap)
	if err != nil {
		panic(err)
	}
	churnRow.Verified = churnRow.Verified && adviceEqual(final, ep.Advice)
	out = append(out, churnRow)
	return out
}

// svcQueries reads the service's lifetime query counter — the
// server-side truth the query rows cross-check client counts against.
func svcQueries(svc *service.Service) uint64 {
	v, _ := svc.Metrics().CounterValue("service_queries_total")
	return v
}
