// Package graph implements the network model of Fraigniaud, Korman and
// Lebhar (SPAA 2007): n-node simple connected graphs with edge weights,
// distinct node identifiers, and a per-node port numbering of the incident
// edges. All distributed algorithms and oracles in this repository operate
// on this representation.
//
// Two edge orders matter throughout:
//
//   - the local order at a node u sorts u's incident edges by
//     (weight, port at u); it is computable by u from its own input alone
//     and underlies the index/rank machinery of the paper (indexu(e) and
//     the rank r_u(e) of indexu(e));
//   - the global order sorts edges by (weight, smaller endpoint ID, port at
//     that endpoint); it is an intrinsic strict total order used by every
//     MST computation for tie-breaking, which guarantees a unique MST and
//     keeps Borůvka fragment selections acyclic even with equal weights.
//
// See DESIGN.md §2.1 for the CSR layout, the cross-port table and the
// in-place update door used by the dynamic subsystem.
package graph

import (
	"fmt"
	"slices"

	"mstadvice/internal/par"
)

// NodeID is the internal, dense identifier of a node: 0..N()-1. It is an
// index, not the (distinct, arbitrary) identifier nodes use in protocols;
// see Graph.ID.
type NodeID int

// Weight is an edge weight. Weights may repeat; ties are resolved by the
// orders documented on the package.
type Weight int64

// EdgeID is the dense identifier of an undirected edge: 0..M()-1.
type EdgeID int

// Half describes one endpoint's view of an incident edge: the neighbour it
// leads to, its weight, and the identity of the underlying edge. The port
// number of the half-edge is its index in the adjacency slice.
type Half struct {
	To   NodeID
	W    Weight
	Edge EdgeID
}

// Edge is the full record of an undirected edge.
type Edge struct {
	U, V   NodeID // endpoints, in insertion order
	PU, PV int    // port of the edge at U and at V
	W      Weight
}

// Graph is an immutable simple weighted graph with port numbering. Build
// one with a Builder. The zero value is an empty graph.
//
// Internally the adjacency is stored in CSR (compressed sparse row) form:
// all 2m half-edges live in one contiguous slice grouped by node, with
// per-node offsets, and every per-node adjacency slice is a view into it.
// The cross-port table dstPort records, for each half-edge (u, p), the
// port of the same edge at the far endpoint, so simulators can route a
// message in O(1) without an edge-record lookup.
type Graph struct {
	adj     [][]Half // per-node views into halves, in port order
	halves  []Half   // CSR payload: half-edges of node u at off[u]..off[u+1]
	off     []int32  // CSR offsets, len n+1
	dstPort []int32  // port at the far endpoint of each half-edge
	edges   []Edge
	ids     []int64 // distinct protocol-level identifiers, indexed by NodeID
}

// finalize builds the CSR representation from the per-node adjacency
// lists and re-points them at the contiguous storage. Called once by
// Builder.Build after validation. The copy and the cross-port table are
// filled in parallel over node ranges: every node's CSR segment is
// disjoint, so the result is identical for any worker count.
func (g *Graph) finalize() {
	n := len(g.adj)
	g.off = make([]int32, n+1)
	total := 0
	for u := 0; u < n; u++ {
		g.off[u] = int32(total)
		total += len(g.adj[u])
	}
	g.off[n] = int32(total)
	g.halves = make([]Half, total)
	g.dstPort = make([]int32, total)
	par.Ranges(buildWorkers(n), n, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			base := int(g.off[u])
			hs := g.adj[u]
			copy(g.halves[base:], hs)
			for p, h := range hs {
				g.dstPort[base+p] = int32(g.PortAt(h.Edge, h.To))
			}
			g.adj[u] = g.halves[base : base+len(hs) : base+len(hs)]
		}
	})
}

// buildWorkers sizes the pool for construction-time loops: one worker
// per ~4096 items, capped at GOMAXPROCS, so the thousands of small
// graphs the experiment sweeps build never pay fork-join overhead.
func buildWorkers(items int) int {
	w := 1 + items/4096
	if full := par.Workers(0); w > full {
		w = full
	}
	return w
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// Degree returns the number of edges incident to u.
func (g *Graph) Degree(u NodeID) int { return len(g.adj[u]) }

// MaxDegree returns the maximum degree over all nodes (0 for empty graphs).
func (g *Graph) MaxDegree() int {
	max := 0
	for u := range g.adj {
		if d := len(g.adj[u]); d > max {
			max = d
		}
	}
	return max
}

// ID returns the protocol-level identifier of u. Identifiers are distinct
// across nodes but otherwise arbitrary.
func (g *Graph) ID(u NodeID) int64 { return g.ids[u] }

// IDs returns the protocol-level identifiers of all nodes, indexed by
// NodeID. The returned slice must not be modified.
func (g *Graph) IDs() []int64 { return g.ids }

// Adj returns u's half-edges in port order. The returned slice must not be
// modified. It is an alias of Halves.
func (g *Graph) Adj(u NodeID) []Half { return g.adj[u] }

// Halves returns u's half-edges in port order as a view into the graph's
// contiguous CSR storage. The returned slice must not be modified.
func (g *Graph) Halves(u NodeID) []Half { return g.adj[u] }

// HalfOffset returns the index of u's first half-edge in the CSR storage:
// the half-edge at (u, port) has global half-edge index HalfOffset(u)+port.
// Offsets are monotone, so HalfOffset also serves as a prefix-degree sum
// for per-port flat buffers (slot i of node u lives at HalfOffset(u)+i).
func (g *Graph) HalfOffset(u NodeID) int { return int(g.off[u]) }

// NumHalves returns the total number of half-edges, 2·M().
func (g *Graph) NumHalves() int { return len(g.halves) }

// DstPort returns the port at the far endpoint of the half-edge at
// (u, port): if that half-edge leads to v over edge e, DstPort(u, port) ==
// PortAt(e, v), precomputed so routing does one array read instead of an
// edge-record branch.
func (g *Graph) DstPort(u NodeID, port int) int {
	return int(g.dstPort[int(g.off[u])+port])
}

// HalfAt returns u's half-edge at the given port.
func (g *Graph) HalfAt(u NodeID, port int) Half { return g.adj[u][port] }

// Edge returns the full record of edge e.
func (g *Graph) Edge(e EdgeID) Edge { return g.edges[e] }

// Edges returns all edge records. The returned slice must not be modified.
func (g *Graph) Edges() []Edge { return g.edges }

// PortAt returns the port number of edge e at its endpoint u. It panics if
// u is not an endpoint of e.
func (g *Graph) PortAt(e EdgeID, u NodeID) int {
	rec := g.edges[e]
	switch u {
	case rec.U:
		return rec.PU
	case rec.V:
		return rec.PV
	default:
		panic(fmt.Sprintf("graph: node %d is not an endpoint of edge %d", u, e))
	}
}

// Other returns the endpoint of e different from u.
func (g *Graph) Other(e EdgeID, u NodeID) NodeID {
	rec := g.edges[e]
	switch u {
	case rec.U:
		return rec.V
	case rec.V:
		return rec.U
	default:
		panic(fmt.Sprintf("graph: node %d is not an endpoint of edge %d", u, e))
	}
}

// Weight returns the weight of edge e.
func (g *Graph) Weight(e EdgeID) Weight { return g.edges[e].W }

// MaxWeight returns the largest edge weight (0 for edgeless graphs).
func (g *Graph) MaxWeight() Weight {
	var max Weight
	for _, e := range g.edges {
		if e.W > max {
			max = e.W
		}
	}
	return max
}

// TotalWeight sums the weights of the given edges.
func (g *Graph) TotalWeight(es []EdgeID) Weight {
	var sum Weight
	for _, e := range es {
		sum += g.Weight(e)
	}
	return sum
}

// GlobalKey is the intrinsic strict total order key of an edge:
// (weight, smaller endpoint ID, port at that endpoint). Because the graph
// is simple, no two distinct edges share all three components.
type GlobalKey struct {
	W         Weight
	MinID     int64
	PortAtMin int
}

// Key returns the global order key of edge e.
func (g *Graph) Key(e EdgeID) GlobalKey {
	rec := g.edges[e]
	idU, idV := g.ids[rec.U], g.ids[rec.V]
	if idU <= idV {
		return GlobalKey{rec.W, idU, rec.PU}
	}
	return GlobalKey{rec.W, idV, rec.PV}
}

// Less reports whether key a precedes key b in the global order.
func (a GlobalKey) Less(b GlobalKey) bool {
	if a.W != b.W {
		return a.W < b.W
	}
	if a.MinID != b.MinID {
		return a.MinID < b.MinID
	}
	return a.PortAtMin < b.PortAtMin
}

// EdgeLess reports whether edge a strictly precedes edge b in the global
// order. For a == b it returns false.
func (g *Graph) EdgeLess(a, b EdgeID) bool { return g.Key(a).Less(g.Key(b)) }

// LocalRank returns the 0-based position of the half-edge at the given port
// among u's incident edges sorted by the local order (weight, then port).
// The mapping rank <-> port is a bijection computable by u alone, which is
// what makes rank-based advice decodable in zero rounds.
func (g *Graph) LocalRank(u NodeID, port int) int {
	me := g.adj[u][port]
	rank := 0
	for p, h := range g.adj[u] {
		if h.W < me.W || (h.W == me.W && p < port) {
			rank++
		}
	}
	return rank
}

// PortOfLocalRank inverts LocalRank: it returns the port whose half-edge
// has the given local rank at u.
func (g *Graph) PortOfLocalRank(u NodeID, rank int) int {
	ports := g.PortsByLocalOrder(u)
	return ports[rank]
}

// PortsByLocalOrder returns u's ports sorted by the local order
// (weight, then port number).
func (g *Graph) PortsByLocalOrder(u NodeID) []int {
	ports := make([]int, len(g.adj[u]))
	for i := range ports {
		ports[i] = i
	}
	slices.SortFunc(ports, func(a, b int) int {
		ha, hb := g.adj[u][a], g.adj[u][b]
		if ha.W != hb.W {
			if ha.W < hb.W {
				return -1
			}
			return 1
		}
		return a - b
	})
	return ports
}

// GlobalRankAt returns the 0-based position of the half-edge at the given
// port among u's incident edges sorted by the global order. A node can
// compute this after learning its neighbours' identifiers (one round).
func (g *Graph) GlobalRankAt(u NodeID, port int) int {
	me := g.Key(g.adj[u][port].Edge)
	rank := 0
	for p, h := range g.adj[u] {
		if p != port && g.Key(h.Edge).Less(me) {
			rank++
		}
	}
	return rank
}

// PortsByGlobalOrder returns u's ports sorted by the global order.
func (g *Graph) PortsByGlobalOrder(u NodeID) []int {
	ports := make([]int, len(g.adj[u]))
	for i := range ports {
		ports[i] = i
	}
	slices.SortFunc(ports, func(a, b int) int {
		ka, kb := g.Key(g.adj[u][a].Edge), g.Key(g.adj[u][b].Edge)
		switch {
		case ka.Less(kb):
			return -1
		case kb.Less(ka):
			return 1
		default:
			return 0
		}
	})
	return ports
}

// Index is the paper's indexu(e) = (xu(e), yu(e)): X is the 1-based rank of
// the weight of e among the weights of u's incident edges (equal weights
// share a rank), and Y is the 1-based rank of the port of e among u's
// incident edges of the same weight.
type Index struct {
	X, Y int
}

// IndexAt computes indexu(e) for the half-edge of u at the given port.
// X counts the distinct weights below me.W by collecting them into a
// stack buffer, sorting, and counting adjacent changes — O(deg log deg)
// with zero heap allocations up to degree 128 (beyond that the buffer
// spills to the heap but the complexity bound holds); Y counts lower
// ports of the same weight directly.
func (g *Graph) IndexAt(u NodeID, port int) Index {
	adj := g.adj[u]
	me := adj[port]
	y := 1
	var stack [128]Weight
	smaller := stack[:0]
	for p, h := range adj {
		if h.W == me.W {
			if p < port {
				y++
			}
		} else if h.W < me.W {
			smaller = append(smaller, h.W)
		}
	}
	slices.Sort(smaller)
	x := 1
	for i, w := range smaller {
		if i == 0 || w != smaller[i-1] {
			x++
		}
	}
	return Index{x, y}
}

// BFS returns, for every node, its hop distance from src (-1 if
// unreachable) and the port of the edge towards its BFS parent (-1 for src
// and unreachable nodes). Neighbours are explored in port order.
func (g *Graph) BFS(src NodeID) (dist []int, parentPort []int) {
	dist = make([]int, g.N())
	parentPort = make([]int, g.N())
	for i := range dist {
		dist[i], parentPort[i] = -1, -1
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for p, h := range g.adj[u] {
			if dist[h.To] == -1 {
				dist[h.To] = dist[u] + 1
				parentPort[h.To] = g.DstPort(u, p)
				queue = append(queue, h.To)
			}
		}
	}
	return dist, parentPort
}

// Connected reports whether the graph is connected (true for n <= 1).
func (g *Graph) Connected() bool {
	if g.N() <= 1 {
		return true
	}
	dist, _ := g.BFS(0)
	for _, d := range dist {
		if d == -1 {
			return false
		}
	}
	return true
}

// Eccentricity returns the maximum hop distance from u to any node. It
// panics if the graph is disconnected.
func (g *Graph) Eccentricity(u NodeID) int {
	dist, _ := g.BFS(u)
	ecc := 0
	for _, d := range dist {
		if d == -1 {
			panic("graph: eccentricity of a disconnected graph")
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Diameter returns the maximum eccentricity. O(n·m); intended for the
// moderate sizes used in experiments.
func (g *Graph) Diameter() int {
	diam := 0
	for u := 0; u < g.N(); u++ {
		if e := g.Eccentricity(NodeID(u)); e > diam {
			diam = e
		}
	}
	return diam
}

// Validate performs structural integrity checks (port reciprocity, ID
// distinctness, simplicity). It is allocation-lean and parallel enough to
// run on every generated graph up to n = 10⁶: duplicate detection is a
// sort-and-dedup pass over packed keys instead of a hash set, and the
// per-edge consistency checks run over edge ranges on the worker pool.
func (g *Graph) Validate() error {
	return g.validate(0)
}

// validate is Validate with an explicit worker request: workers > 0
// sizes every parallel pass at that count (capped only by the per-item
// floor, not by GOMAXPROCS), which keeps the passes visible to the
// par.Profile work-span model; workers <= 0 uses the adaptive default.
func (g *Graph) validate(workers int) error {
	size := func(items int) int {
		if workers <= 0 {
			return buildWorkers(items)
		}
		if w := 1 + items/4096; workers > w {
			return w
		}
		return workers
	}
	// ID distinctness: sort (id, node) pairs and compare neighbours.
	// IDs that fit int32 (every generator's do) take the fast path —
	// packed (biased id, node) words through the parallel radix sort;
	// wider IDs fall back to a comparison sort of explicit pairs.
	idWorkers := size(len(g.ids))
	idFits := true
	for _, id := range g.ids {
		if id < -1<<31 || id > 1<<31-1 {
			idFits = false
			break
		}
	}
	if idFits {
		keys := make([]uint64, len(g.ids))
		par.Ranges(idWorkers, len(g.ids), func(_, lo, hi int) {
			for u := lo; u < hi; u++ {
				keys[u] = (uint64(uint32(g.ids[u]))^0x8000_0000)<<32 | uint64(uint32(u))
			}
		})
		par.SortU64(idWorkers, keys)
		for i := 1; i < len(keys); i++ {
			if keys[i]>>32 == keys[i-1]>>32 {
				return fmt.Errorf("graph: duplicate ID %d at nodes %d and %d",
					int32(uint32(keys[i]>>32)^0x8000_0000), uint32(keys[i-1]), uint32(keys[i]))
			}
		}
	} else {
		type idPair struct {
			id   int64
			node NodeID
		}
		idPairs := make([]idPair, len(g.ids))
		for u, id := range g.ids {
			idPairs[u] = idPair{id, NodeID(u)}
		}
		slices.SortFunc(idPairs, func(a, b idPair) int {
			switch {
			case a.id < b.id:
				return -1
			case a.id > b.id:
				return 1
			default:
				return int(a.node - b.node)
			}
		})
		for i := 1; i < len(idPairs); i++ {
			if idPairs[i].id == idPairs[i-1].id {
				return fmt.Errorf("graph: duplicate ID %d at nodes %d and %d",
					idPairs[i].id, idPairs[i-1].node, idPairs[i].node)
			}
		}
	}
	// Simplicity: self-loops inline, duplicates by sorting packed
	// endpoint keys (nodes fit in 32 bits far beyond any supported n)
	// with the parallel radix sort.
	keys := make([]uint64, len(g.edges))
	err := par.FirstFailure(size(len(g.edges)), len(g.edges), func(_, lo, hi int) (int, error) {
		for ei := lo; ei < hi; ei++ {
			e := g.edges[ei]
			if e.U == e.V {
				return ei, fmt.Errorf("graph: edge %d is a self-loop at %d", ei, e.U)
			}
			a, b := e.U, e.V
			if a > b {
				a, b = b, a
			}
			keys[ei] = uint64(a)<<32 | uint64(uint32(b))
		}
		return -1, nil
	})
	if err != nil {
		return err
	}
	par.SortU64(size(len(keys)), keys)
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			return fmt.Errorf("graph: duplicate edge %d-%d", keys[i]>>32, uint32(keys[i]))
		}
	}
	// Port-table, adjacency and weight reciprocity, in parallel over edge
	// ranges; par.FirstFailure reports the lowest failing edge, the same
	// error a sequential scan would return.
	err = par.FirstFailure(size(len(g.edges)), len(g.edges), func(_, lo, hi int) (int, error) {
		for ei := lo; ei < hi; ei++ {
			e := g.edges[ei]
			switch {
			case g.adj[e.U][e.PU].Edge != EdgeID(ei) || g.adj[e.V][e.PV].Edge != EdgeID(ei):
				return ei, fmt.Errorf("graph: port table inconsistent for edge %d", ei)
			case g.adj[e.U][e.PU].To != e.V || g.adj[e.V][e.PV].To != e.U:
				return ei, fmt.Errorf("graph: adjacency inconsistent for edge %d", ei)
			case g.adj[e.U][e.PU].W != e.W || g.adj[e.V][e.PV].W != e.W:
				return ei, fmt.Errorf("graph: weight inconsistent for edge %d", ei)
			}
		}
		return -1, nil
	})
	if err != nil {
		return err
	}
	total := 0
	for u := range g.adj {
		total += len(g.adj[u])
	}
	if total != 2*len(g.edges) {
		return fmt.Errorf("graph: degree sum %d != 2m = %d", total, 2*len(g.edges))
	}
	return nil
}

// Builder assembles a Graph. Nodes are created up front; edges are added
// one at a time and receive consecutive ports at each endpoint in insertion
// order (generators shuffle insertion order to randomise port labellings).
//
// AddEdge performs only O(1) endpoint checks; duplicate edges are caught
// by Build's sort-and-dedup validation pass instead of a per-edge hash
// set, which keeps construction allocation-lean at n = 10⁶ scale.
type Builder struct {
	adj   [][]Half
	edges []Edge
	ids   []int64
	err   error
}

// NewBuilder creates a builder for a graph with n nodes and default
// identifiers ID(u) = u+1.
func NewBuilder(n int) *Builder {
	b := &Builder{
		adj: make([][]Half, n),
		ids: make([]int64, n),
	}
	for i := range b.ids {
		b.ids[i] = int64(i + 1)
	}
	return b
}

// SetIDs overrides the protocol-level identifiers. len(ids) must equal the
// node count and the values must be distinct (checked in Build).
func (b *Builder) SetIDs(ids []int64) *Builder {
	if len(ids) != len(b.adj) {
		b.fail(fmt.Errorf("graph: SetIDs got %d ids for %d nodes", len(ids), len(b.adj)))
		return b
	}
	copy(b.ids, ids)
	return b
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// AddEdge adds an undirected edge {u, v} of weight w. The edge gets the
// next free port at u and at v.
func (b *Builder) AddEdge(u, v NodeID, w Weight) *Builder {
	if b.err != nil {
		return b
	}
	n := NodeID(len(b.adj))
	if u < 0 || u >= n || v < 0 || v >= n {
		b.fail(fmt.Errorf("graph: edge endpoint out of range: %d-%d (n=%d)", u, v, n))
		return b
	}
	if u == v {
		b.fail(fmt.Errorf("graph: self-loop at %d", u))
		return b
	}
	e := EdgeID(len(b.edges))
	b.edges = append(b.edges, Edge{U: u, V: v, PU: len(b.adj[u]), PV: len(b.adj[v]), W: w})
	b.adj[u] = append(b.adj[u], Half{To: v, W: w, Edge: e})
	b.adj[v] = append(b.adj[v], Half{To: u, W: w, Edge: e})
	return b
}

// Build finalises the graph and validates it.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	g := &Graph{adj: b.adj, edges: b.edges, ids: b.ids}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	g.finalize()
	return g, nil
}

// MustBuild is Build for static graphs in tests and examples; it panics on
// error.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// CeilLog2 returns ⌈log2(x)⌉ for x >= 1 (0 for x = 1) and panics otherwise.
// It is the paper's ⌈log n⌉.
func CeilLog2(x int) int {
	if x < 1 {
		panic(fmt.Sprintf("graph: CeilLog2(%d)", x))
	}
	k, p := 0, 1
	for p < x {
		p <<= 1
		k++
	}
	return k
}
