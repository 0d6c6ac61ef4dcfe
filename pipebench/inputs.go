package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"mstadvice/internal/bitstring"
	"mstadvice/internal/core"
	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
	"mstadvice/internal/store"
)

// genGraph builds one seeded graph with distinct weights.
func genGraph(family string, n int, seed uint64, workers int, tr *tracer, parent int) (*graph.Graph, error) {
	var g *graph.Graph
	if err := tr.do("gen.build", parent, 0, func() (err error) {
		g, err = gen.BuildSeeded(family, n, seed, gen.SeededOptions{Weights: gen.WeightsDistinct, Workers: workers})
		return err
	}); err != nil {
		return nil, fmt.Errorf("generating %s n=%d: %w", family, n, err)
	}
	return g, nil
}

// checkFingerprint regenerates a graph with one worker and compares its
// fingerprint with the one built on the full pool: the generator must
// hand the program the same graph whatever the worker count.
func checkFingerprint(rep *report, label, family string, n int, cfg config, g *graph.Graph) error {
	fp := fingerprint(g)
	g1, err := gen.BuildSeeded(family, n, cfg.seed, gen.SeededOptions{Weights: gen.WeightsDistinct, Workers: 1})
	if err != nil {
		return err
	}
	fp1 := fingerprint(g1)
	rep.gate.check(fp == fp1, "graph %s: fingerprint %016x with %d workers, %016x with 1", label, fp, cfg.workers, fp1)
	rep.note("graph %s: family=%s n=%d m=%d seed=%d fingerprint=%016x (workers 1 and %d agree: %v)",
		label, family, g.N(), g.M(), cfg.seed, fp, cfg.workers, fp == fp1)
	return nil
}

// oracle runs the Theorem 3 oracle on the configured worker pool.
func oracle(g *graph.Graph, workers int, tr *tracer, parent int, req int64) ([]*bitstring.BitString, error) {
	var adv []*bitstring.BitString
	err := tr.do("core.oracle", parent, req, func() (err error) {
		adv, err = core.Scheme{}.AdviseWorkers(g, 0, workers)
		return err
	})
	return adv, err
}

// encodedSize is the size in bytes of g's snapshot with the given
// advice, as store.Encode writes it.
func encodedSize(g *graph.Graph, adv []*bitstring.BitString, tr *tracer, parent int) (int, error) {
	var size int
	err := tr.do("store.encode", parent, 0, func() error {
		b, err := store.Encode(&store.Snapshot{Graph: g, Root: 0, Cap: core.DefaultCap, Advice: adv})
		size = len(b)
		return err
	})
	return size, err
}

// traceOracle measures, on the workload's main graph and before the
// measured phase, what the workload's own calls do not expose: the
// oracle's wall time and allocations on the full pool, its measured
// speedup from one worker to the full pool, and the snapshot encode.
func traceOracle(cfg config, g *graph.Graph, rep *report, tr *tracer) error {
	sp := tr.begin("bench.oracle_scaling", -1, 0)
	defer tr.end(sp)
	runtime.GC()
	meter := startAllocs()
	t0 := time.Now()
	adv, err := oracle(g, cfg.workers, tr, sp, 1)
	if err != nil {
		return err
	}
	full := time.Since(t0).Seconds()
	allocs, mb := meter.stop()
	rep.set("core.oracle_s", full)
	rep.set("core.oracle_allocs", allocs)
	rep.set("core.oracle_alloc_mb", mb)
	runtime.GC()
	t0 = time.Now()
	if _, err := oracle(g, 1, tr, sp, 2); err != nil {
		return err
	}
	rep.set("core.oracle_speedup_measured", time.Since(t0).Seconds()/full)
	t0 = time.Now()
	size, err := encodedSize(g, adv, tr, sp)
	rep.set("store.encode_s", time.Since(t0).Seconds())
	rep.set("store.snapshot_mb", float64(size)/(1<<20))
	return err
}

// fingerprint hashes everything that identifies a generated graph —
// node count, protocol IDs, and every edge with its endpoints, ports
// and weight — with 64-bit FNV-1a over little-endian words.
func fingerprint(g *graph.Graph) uint64 {
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		for range 8 {
			h ^= x & 0xff
			h *= 1099511628211
			x >>= 8
		}
	}
	mix(uint64(g.N()))
	mix(uint64(g.M()))
	for u := range g.N() {
		mix(uint64(g.ID(graph.NodeID(u))))
	}
	for _, e := range g.Edges() {
		mix(uint64(e.U))
		mix(uint64(e.V))
		mix(uint64(e.PU))
		mix(uint64(e.PV))
		mix(uint64(e.W))
	}
	return h
}

// maxBits is the longest advice string of an assignment.
func maxBits(adv []*bitstring.BitString) int {
	m := 0
	for _, a := range adv {
		m = max(m, a.Len())
	}
	return m
}

// sameAdvice reports whether two assignments are byte-identical.
func sameAdvice(a, b []*bitstring.BitString) bool {
	return slices.EqualFunc(a, b, func(x, y *bitstring.BitString) bool { return x.Equal(y) })
}
