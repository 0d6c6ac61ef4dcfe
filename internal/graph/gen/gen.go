// Package gen generates the graph families used by the experiments:
// deterministic topologies (paths, rings, grids, stars, binary trees,
// caterpillars, complete graphs, wheels, lollipops) and randomised ones
// (random trees, random connected graphs, Hamiltonian-cycle expanders).
//
// Every family is one row of a single table that enumerates its edges
// as a pointwise function of the edge index; one assembler then
// assigns weights according to a WeightMode, shuffles the port
// labelling and permutes the node identifiers, so all families share
// identical conventions. All randomness is counter-mode and keyed by an
// explicit uint64 seed: the same (family, n, seed, options) reproduce
// the same graph bit for bit, for any worker count.
//
// BuildSeeded is the entry point by family name; RandomConnected and
// Grid expose the two families whose shape takes a second parameter.
//
// See DESIGN.md §2.1 for the graph representation the generators emit,
// DESIGN.md §2.12 for the seeded construction and DESIGN.md §3 for the
// experiments that sweep these families.
package gen

import (
	"fmt"
	"sync/atomic"

	"mstadvice/internal/graph"
	"mstadvice/internal/par"
)

// WeightMode selects how edge weights are assigned.
type WeightMode int

const (
	// WeightsDistinct assigns a random permutation of 1..m: globally
	// distinct weights, the classic unique-MST regime.
	WeightsDistinct WeightMode = iota
	// WeightsRandom assigns independent uniform weights in [1, ~m/2],
	// producing occasional ties (never two equal weights at one node is NOT
	// guaranteed).
	WeightsRandom
	// WeightsUnit assigns weight 1 to every edge: maximal ties; the MST is
	// determined entirely by the tie-breaking order.
	WeightsUnit
)

func (m WeightMode) String() string {
	switch m {
	case WeightsDistinct:
		return "distinct"
	case WeightsRandom:
		return "random"
	case WeightsUnit:
		return "unit"
	default:
		return fmt.Sprintf("WeightMode(%d)", int(m))
	}
}

// SeededOptions control every builder. Workers sizes the pool used
// during generation; it never affects the generated bytes.
type SeededOptions struct {
	Weights   WeightMode
	KeepPorts bool // identity port labelling instead of a seeded shuffle
	KeepIDs   bool // identity IDs 1..n instead of a seeded permutation
	Workers   int
}

// seqEdge is an edge endpoint pair; its index in an edgeList is its
// position in the generation sequence.
type seqEdge struct {
	u, v int
}

// edgeList produces the endpoint pairs of a family as a pointwise
// function: count is the edge count, at(i) the i-th pair. Deterministic
// families enumerate their structure directly; randomised families
// compose the substream primitives of seeded.go. All pairs are distinct
// and free of self-loops by construction.
type edgeList struct {
	n     int
	count int
	at    func(i int) seqEdge
}

// family is one row of the family table: a name, the smallest
// meaningful size (BuildSeeded clamps n up to it), and the edge
// enumeration at a clamped size.
type family struct {
	name  string
	minN  int
	edges func(n int, seed uint64, workers int) (edgeList, error)
}

// families is the single source of truth for the named families: Names
// lists it and BuildSeeded looks names up in it, so listings and
// lookups can never disagree.
var families = []family{
	{"path", 1, func(n int, _ uint64, _ int) (edgeList, error) {
		return edgeList{n, n - 1, func(i int) seqEdge { return seqEdge{i, i + 1} }}, nil
	}},
	{"ring", 3, func(n int, _ uint64, _ int) (edgeList, error) {
		return edgeList{n, n, func(i int) seqEdge { return seqEdge{i, (i + 1) % n} }}, nil
	}},
	{"grid", 1, func(n int, _ uint64, _ int) (edgeList, error) {
		// The largest square that fits in n, at least 2x2.
		side := 1
		for (side+1)*(side+1) <= n {
			side++
		}
		if side < 2 {
			side = 2
		}
		return gridEdges(side, side), nil
	}},
	{"tree", 1, func(n int, seed uint64, _ int) (edgeList, error) {
		tkey := streamKey(seed, purposeTree)
		return edgeList{n, n - 1, func(i int) seqEdge {
			// node i+1 attaches to a uniform earlier node.
			return seqEdge{drawMod(tkey, uint64(i), i+1), i + 1}
		}}, nil
	}},
	{"random", 1, func(n int, seed uint64, workers int) (edgeList, error) {
		return randomConnectedEdges(n, 3*n, seed, workers)
	}},
	{"expander", 3, func(n int, seed uint64, workers int) (edgeList, error) {
		return expanderEdges(n, seed, workers)
	}},
	{"star", 2, func(n int, _ uint64, _ int) (edgeList, error) {
		return edgeList{n, n - 1, func(i int) seqEdge { return seqEdge{0, i + 1} }}, nil
	}},
	{"caterpillar", 2, func(n int, _ uint64, _ int) (edgeList, error) {
		// A spine path of ⌈n/2⌉ nodes with the rest attached as legs
		// round-robin along it.
		spine := (n + 1) / 2
		return edgeList{n, n - 1, func(i int) seqEdge {
			if i < spine-1 {
				return seqEdge{i, i + 1}
			}
			j := i - (spine - 1) // leg j hangs off spine node j mod spine
			return seqEdge{j % spine, spine + j}
		}}, nil
	}},
	{"binarytree", 1, func(n int, _ uint64, _ int) (edgeList, error) {
		// Node i has children 2i+1 and 2i+2 where they exist.
		return edgeList{n, n - 1, func(i int) seqEdge { return seqEdge{i / 2, i + 1} }}, nil
	}},
	{"complete", 1, func(n int, _ uint64, _ int) (edgeList, error) {
		return completeEdges(n), nil
	}},
	{"wheel", 4, func(n int, _ uint64, _ int) (edgeList, error) {
		// A hub (node 0) joined to every node of an (n-1)-cycle.
		return edgeList{n, 2 * (n - 1), func(i int) seqEdge {
			if i < n-1 { // spokes
				return seqEdge{0, i + 1}
			}
			j := i - (n - 1) // rim
			next := j + 2
			if next == n {
				next = 1
			}
			return seqEdge{j + 1, next}
		}}, nil
	}},
	{"lollipop", 4, func(n int, _ uint64, _ int) (edgeList, error) {
		// A clique on ⌈n/2⌉ nodes with a path of the rest attached: the
		// classic adversarial input for fragment-growing distributed MST
		// algorithms (a low-diameter core waiting on a long tail).
		clique := (n + 1) / 2
		core := completeEdges(clique)
		return edgeList{n, core.count + (n - clique), func(i int) seqEdge {
			if i < core.count {
				return core.at(i)
			}
			j := i - core.count // tail node clique+j
			if j == 0 {
				return seqEdge{0, clique}
			}
			return seqEdge{clique + j - 1, clique + j}
		}}, nil
	}},
}

// Names returns the family names, in table order.
func Names() []string {
	names := make([]string, len(families))
	for i, f := range families {
		names[i] = f.name
	}
	return names
}

// BuildSeeded generates a graph of the named family. n is clamped up to
// the family's structural minimum (ring 3, star and caterpillar 2,
// expander 3, wheel and lollipop 4) and grid rounds down to the largest
// square of side at least 2. The same (name, n, seed, Weights,
// KeepPorts, KeepIDs) always produce the same graph, bit for bit,
// regardless of Workers or GOMAXPROCS; the bytes are pinned by goldens
// in seeded_test.go. An unknown name or n < 1 is an error.
func BuildSeeded(name string, n int, seed uint64, opt SeededOptions) (*graph.Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("gen: family %q: need at least 1 node, got %d", name, n)
	}
	for _, f := range families {
		if f.name != name {
			continue
		}
		workers := par.Workers(opt.Workers)
		if n < f.minN {
			n = f.minN
		}
		list, err := f.edges(n, seed, workers)
		if err != nil {
			return nil, err
		}
		g, err := assemble(list, seed, opt, workers)
		if err != nil {
			return nil, fmt.Errorf("gen: %q n=%d seed=%d: %w", name, n, seed, err)
		}
		return g, nil
	}
	return nil, fmt.Errorf("gen: unknown family %q (have %v)", name, Names())
}

// RandomConnected returns a connected graph on n nodes with m edges: a
// random attachment tree plus m-(n-1) distinct random extra edges. m is
// clamped to [n-1, n(n-1)/2]; with m = 3n it is the "random" family.
// It panics if n < 1.
func RandomConnected(n, m int, seed uint64, opt SeededOptions) *graph.Graph {
	if n < 1 {
		panic(fmt.Sprintf("gen: RandomConnected needs at least 1 node, got %d", n))
	}
	workers := par.Workers(opt.Workers)
	list, err := randomConnectedEdges(n, m, seed, workers)
	var g *graph.Graph
	if err == nil {
		g, err = assemble(list, seed, opt, workers)
	}
	if err != nil { // neither step fails on a valid size: a bug
		panic(fmt.Sprintf("gen: RandomConnected n=%d m=%d seed=%d: %v", n, m, seed, err))
	}
	return g
}

// Grid returns the rows x cols grid graph; with rows = cols it is the
// "grid" family. It panics if rows or cols is below 1.
func Grid(rows, cols int, seed uint64, opt SeededOptions) *graph.Graph {
	if rows < 1 || cols < 1 {
		panic(fmt.Sprintf("gen: invalid grid %dx%d", rows, cols))
	}
	g, err := assemble(gridEdges(rows, cols), seed, opt, par.Workers(opt.Workers))
	if err != nil {
		panic(fmt.Sprintf("gen: grid %dx%d seed=%d: %v", rows, cols, seed, err))
	}
	return g
}

// gridEdges enumerates the rows x cols grid: every horizontal edge row
// by row, then every vertical edge.
func gridEdges(rows, cols int) edgeList {
	horiz := rows * (cols - 1)
	return edgeList{rows * cols, horiz + (rows-1)*cols, func(i int) seqEdge {
		if i < horiz { // row r, column c to c+1
			r, c := i/(cols-1), i%(cols-1)
			return seqEdge{r*cols + c, r*cols + c + 1}
		}
		j := i - horiz // row r to r+1, column c
		r, c := j/cols, j%cols
		return seqEdge{r*cols + c, (r+1)*cols + c}
	}}
}

// completeEdges enumerates K_n's pairs in row order: all pairs (0, v),
// then (1, v), ... Unranking binary-searches the row prefix sums, so
// at(i) stays pointwise at O(log n).
func completeEdges(n int) edgeList {
	return edgeList{n, n * (n - 1) / 2, func(i int) seqEdge { return pairAt(n, i) }}
}

// assemble turns an edge list into a graph: weights by opt.Weights, a
// seeded port shuffle and a seeded ID permutation, every pass pointwise
// over edges or nodes on the worker pool.
func assemble(list edgeList, seed uint64, opt SeededOptions, workers int) (*graph.Graph, error) {
	n := list.n
	m := list.count
	edges := make([]graph.Edge, m)

	// Endpoints and weights, pointwise over edges.
	wkey := streamKey(seed, purposeWeight)
	var wperm bijection
	if opt.Weights == WeightsDistinct && m > 0 {
		wperm = newBijection(m, wkey)
	}
	wmax := m/2 + 1
	par.Ranges(workers, m, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			e := list.at(i)
			var w graph.Weight
			switch opt.Weights {
			case WeightsDistinct:
				w = graph.Weight(wperm.apply(i) + 1)
			case WeightsRandom:
				w = graph.Weight(int(draw(wkey, uint64(i))%uint64(wmax)) + 1)
			case WeightsUnit:
				w = 1
			default:
				panic(fmt.Sprintf("gen: unknown weight mode %d", int(opt.Weights)))
			}
			edges[i] = graph.Edge{U: graph.NodeID(e.u), V: graph.NodeID(e.v), W: w}
		}
	})

	// Ports: rank of the edge's shuffled sequence number among the edges
	// at each endpoint. One sort of packed (node, sequence, side) keys
	// yields every rank as position − CSR offset; the sequence number is
	// inverted back to the edge to scatter the rank into its record.
	sperm := bijection{}
	if !opt.KeepPorts && m > 0 {
		sperm = newBijection(m, streamKey(seed, purposePorts))
	}
	seqOf := func(i int) int {
		if opt.KeepPorts || m == 0 {
			return i
		}
		return sperm.apply(i)
	}
	edgeOf := func(s int) int {
		if opt.KeepPorts || m == 0 {
			return s
		}
		return sperm.invert(s)
	}
	halfKeys := make([]uint64, 2*m)
	deg := make([]int32, n)
	par.Ranges(workers, m, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			s := uint64(seqOf(i))
			e := edges[i]
			halfKeys[2*i] = uint64(e.U)<<33 | s<<1
			halfKeys[2*i+1] = uint64(e.V)<<33 | s<<1 | 1
			atomic.AddInt32(&deg[e.U], 1)
			atomic.AddInt32(&deg[e.V], 1)
		}
	})
	par.SortU64(workers, halfKeys)
	off := make([]int32, n+1)
	acc := int32(0)
	for u := 0; u < n; u++ {
		off[u] = acc
		acc += deg[u]
	}
	off[n] = acc
	par.Ranges(workers, 2*m, func(_, lo, hi int) {
		for pos := lo; pos < hi; pos++ {
			key := halfKeys[pos]
			u := int(key >> 33)
			i := edgeOf(int(key << 31 >> 32)) // middle 32 bits: sequence number
			port := pos - int(off[u])
			if key&1 == 0 {
				edges[i].PU = port
			} else {
				edges[i].PV = port
			}
		}
	})

	// IDs: seeded permutation of 1..n (identity under KeepIDs).
	var ids []int64
	if !opt.KeepIDs {
		idperm := newBijection(n, streamKey(seed, purposeIDs))
		ids = make([]int64, n)
		par.Ranges(workers, n, func(_, lo, hi int) {
			for u := lo; u < hi; u++ {
				ids[u] = int64(idperm.apply(u) + 1)
			}
		})
	}
	return graph.FromEdgeList(n, ids, edges, workers)
}
