// Command experiments regenerates the reproduction's tables and figures
// (E1..E13, see DESIGN.md §3 and EXPERIMENTS.md) and runs its benches:
//
//	experiments                       # run everything at the default sizes
//	experiments -e e4,e5              # only the main theorem and the separation
//	experiments -e e11                # dynamic networks: sensitivity + churn
//	experiments -sizes 16,128         # custom n sweep
//	experiments -bench sim            # engine micro-benchmark → BENCH_sim.json
//	experiments -bench oracle -out /tmp/now.json -sizes 10000 \
//	            -bench-baseline BENCH_oracle.json
//	                                  # CI smoke: fail on >2x regression
//	experiments -bench sim -out /tmp/b.json -cpuprofile cpu.pprof -memprofile mem.pprof
//	                                  # profile any bench run with pprof
//
// -bench NAME skips the tables and runs one bench of the
// experiments.Benches table instead:
//
//	sim       engine end to end, plus single-edge-update latency
//	oracle    oracle pipeline at n up to 10⁶; a run that measures
//	          n = 10⁶ fails unless the 8-worker speedup reaches 2.5x
//	service   advice-serving layer: store round-trip, closed-loop query
//	          QPS/latency, churn
//	async     asynchronous mode: rounds vs virtual time, synchronizer
//	          overhead, sync/async parity
//	topo      topology-recognition problem: family sweep with async
//	          parity, radius sweep
//	hier      hierarchical advice: bits-vs-rounds frontier, tier vs flat
//	          snapshot bytes (n up to 10⁶)
//	replica   replicated serving tier: failover client under kill/restart
//	          chaos, catch-up time, zero wrong answers
//	obs       observability overhead gate: hot-path instrument cost and
//	          the read path's 0-allocs / <5% contract
//
// It writes the rows as JSON to -out, by default BENCH_<NAME>.json, so
// a plain run regenerates the committed perf trajectory.
// -bench-baseline additionally compares the fresh rows against a
// committed baseline and exits non-zero on any wall-time or allocation
// regression beyond -bench-max-factor, or on a lost Verified flag.
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"

	"mstadvice/internal/experiments"
)

func main() {
	benches := experiments.Benches()
	names := strings.Join(slices.Sorted(maps.Keys(benches)), ", ")
	var (
		which          = flag.String("e", "all", "comma-separated experiment ids (e1..e13) or 'all'")
		sizes          = flag.String("sizes", "", "comma-separated n sweep (default 16,64,256,1024)")
		families       = flag.String("families", "", "comma-separated families (default path,grid,random,expander)")
		seed           = flag.Int64("seed", 1, "generator seed")
		bench          = flag.String("bench", "", "run this bench instead of the tables: "+names)
		out            = flag.String("out", "", "with -bench: write the rows to this file (default BENCH_<name>.json)")
		cpuProfile     = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile     = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
		serviceQueries = flag.Int("service-queries", 0, "closed-loop query count of the service, replica and obs benches (0 = default)")
		benchBase      = flag.String("bench-baseline", "", "compare benchmark rows against this committed baseline JSON and fail on regression")
		benchFactor    = flag.Float64("bench-max-factor", 2.0, "regression threshold for -bench-baseline (ratio to baseline)")
	)
	flag.Parse()

	cfg := experiments.Config{Seed: *seed}
	if *sizes != "" {
		for _, part := range strings.Split(*sizes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				fail("bad size %q", part)
			}
			cfg.Sizes = append(cfg.Sizes, n)
		}
	}
	if *families != "" {
		cfg.Families = strings.Split(*families, ",")
	}
	if err := cfg.Validate(); err != nil {
		fail("%v", err)
	}

	cfg.Queries = *serviceQueries
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail("%v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fail("%v", err)
			}
			defer f.Close()
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail("%v", err)
			}
		}()
	}
	if *bench == "" {
		if *benchBase != "" || *out != "" {
			fail("-bench-baseline and -out need -bench NAME to produce rows")
		}
	} else {
		b, ok := benches[*bench]
		if !ok {
			fail("unknown bench %q (have %s)", *bench, names)
		}
		path := *out
		if path == "" {
			path = "BENCH_" + *bench + ".json"
		}
		// Read the baseline before the bench writes its rows: the output
		// path may BE the committed baseline (one step regenerates the
		// artifact and gates it against the committed state in a single
		// run).
		var baseline []experiments.BenchResult
		if *benchBase != "" {
			var err error
			if baseline, err = experiments.ReadBench(*benchBase); err != nil {
				fail("%v", err)
			}
		}
		rows := b.Run(cfg)
		if err := experiments.WriteBench(path, rows); err != nil {
			fail("%v", err)
		}
		fmt.Printf("wrote %d benchmark rows to %s\n", len(rows), path)
		if b.Gate != nil {
			if err := b.Gate(rows); err != nil {
				fail("%s gate: %v", *bench, err)
			}
		}
		if *benchBase != "" {
			regressions := experiments.CompareBaseline(rows, baseline, *benchFactor)
			for _, r := range regressions {
				fmt.Fprintf(os.Stderr, "REGRESSION %s\n", r)
			}
			if len(regressions) > 0 {
				fail("%d benchmark regression(s) against %s", len(regressions), *benchBase)
			}
			fmt.Printf("no regressions against %s (factor %.1f)\n", *benchBase, *benchFactor)
		}
		return
	}

	ids := experiments.IDs()
	if *which != "all" {
		ids = strings.Split(*which, ",")
	}
	reg := experiments.Registry()
	for _, id := range ids {
		id = strings.TrimSpace(strings.ToLower(id))
		run, ok := reg[id]
		if !ok {
			fail("unknown experiment %q (have %s)", id, strings.Join(experiments.IDs(), ","))
		}
		for _, table := range run(cfg) {
			if _, err := table.WriteTo(os.Stdout); err != nil {
				fail("%v", err)
			}
			fmt.Println()
		}
	}
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
	os.Exit(2)
}
