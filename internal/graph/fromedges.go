package graph

import (
	"fmt"
	"sync/atomic"

	"mstadvice/internal/par"
)

// FromEdgeList builds a graph on n nodes from complete edge records —
// endpoints, both port numbers, and weight all filled in — plus optional
// protocol identifiers (nil means the default IDs u+1). Ports must form,
// at every node, exactly the range 0..deg-1 with each port used once;
// violations are reported as errors, as are the structural defects
// Validate catches.
//
// Construction is parallel over edges and nodes: degree counting uses
// commutative atomic adds, the CSR payload and cross-port table are
// scattered to slots determined by the records alone, so the resulting
// graph is byte-identical for any worker count. The incremental Builder
// assigns ports as edges arrive, which forces a sequential pass; the
// seeded parallel generators compute every port up front and hand the
// finished records here instead (see DESIGN.md §2.12).
func FromEdgeList(n int, ids []int64, edges []Edge, workers int) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: FromEdgeList with n = %d", n)
	}
	// Honor an explicit worker request as-is (capped only by the
	// per-item floor): the caller may be profiling a target worker count
	// above GOMAXPROCS, and silently clamping to the host's core count
	// would hide these passes from the work-span model.
	explicit := workers > 0
	workers = par.Workers(workers)
	limit := buildWorkers(len(edges))
	if explicit {
		limit = 1 + len(edges)/4096
	}
	if workers > limit {
		workers = limit
	}
	deg := make([]int32, n)
	err := par.FirstFailure(workers, len(edges), func(_, lo, hi int) (int, error) {
		for ei := lo; ei < hi; ei++ {
			e := edges[ei]
			if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
				return ei, fmt.Errorf("graph: edge %d endpoint out of range: %d-%d (n=%d)", ei, e.U, e.V, n)
			}
			if e.U == e.V {
				return ei, fmt.Errorf("graph: edge %d is a self-loop at %d", ei, e.U)
			}
			atomic.AddInt32(&deg[e.U], 1)
			atomic.AddInt32(&deg[e.V], 1)
		}
		return -1, nil
	})
	if err != nil {
		return nil, err
	}
	off := make([]int32, n+1)
	total := int32(0)
	for u := 0; u < n; u++ {
		off[u] = total
		total += deg[u]
	}
	off[n] = total
	// While halves are scattered, dstPort doubles as the claim table: a
	// slot holds ^port (never 0) once an edge owns it, and an edge takes
	// a slot by CAS from 0. A port named twice in hostile records thus
	// fails its CAS instead of racing for the slot; 2m successful claims
	// fill all 2m slots, and the adjacency pass flips them back.
	halves := make([]Half, total)
	dstPort := make([]int32, total)
	err = par.FirstFailure(workers, len(edges), func(_, lo, hi int) (int, error) {
		for ei := lo; ei < hi; ei++ {
			e := edges[ei]
			if e.PU < 0 || int32(e.PU) >= deg[e.U] || e.PV < 0 || int32(e.PV) >= deg[e.V] {
				return ei, fmt.Errorf("graph: edge %d port out of range: %d@%d / %d@%d", ei, e.PU, e.U, e.PV, e.V)
			}
			hu, hv := off[e.U]+int32(e.PU), off[e.V]+int32(e.PV)
			if !atomic.CompareAndSwapInt32(&dstPort[hu], 0, ^int32(e.PV)) {
				return ei, fmt.Errorf("graph: two edges claim port %d of node %d", e.PU, e.U)
			}
			if !atomic.CompareAndSwapInt32(&dstPort[hv], 0, ^int32(e.PU)) {
				return ei, fmt.Errorf("graph: two edges claim port %d of node %d", e.PV, e.V)
			}
			halves[hu] = Half{To: e.V, W: e.W, Edge: EdgeID(ei)}
			halves[hv] = Half{To: e.U, W: e.W, Edge: EdgeID(ei)}
		}
		return -1, nil
	})
	if err != nil {
		return nil, err
	}
	if ids == nil {
		ids = make([]int64, n)
		par.Ranges(workers, n, func(_, lo, hi int) {
			for u := lo; u < hi; u++ {
				ids[u] = int64(u + 1)
			}
		})
	} else if len(ids) != n {
		return nil, fmt.Errorf("graph: FromEdgeList got %d ids for %d nodes", len(ids), n)
	}
	g := &Graph{
		adj:     make([][]Half, n),
		halves:  halves,
		off:     off,
		dstPort: dstPort,
		edges:   edges,
		ids:     ids,
	}
	par.Ranges(workers, n, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			g.adj[u] = halves[off[u]:off[u+1]:off[u+1]]
			for h := off[u]; h < off[u+1]; h++ {
				dstPort[h] = ^dstPort[h]
			}
		}
	})
	// Every port is now used exactly once; validate adds the simplicity,
	// weight and ID-distinctness checks.
	if err := g.validate(workers); err != nil {
		return nil, err
	}
	return g, nil
}
