package gen

import (
	"testing"

	"mstadvice/internal/graph"
)

func checkGraph(t *testing.T, g *graph.Graph, wantN int, wantConnected bool) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if wantN > 0 && g.N() != wantN {
		t.Fatalf("N = %d, want %d", g.N(), wantN)
	}
	if wantConnected && !g.Connected() {
		t.Fatal("graph not connected")
	}
}

// build is BuildSeeded for tests: any error fails the test.
func build(t *testing.T, name string, n int, seed uint64, opt SeededOptions) *graph.Graph {
	t.Helper()
	g, err := BuildSeeded(name, n, seed, opt)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPath(t *testing.T) {
	g := build(t, "path", 10, 1, SeededOptions{})
	checkGraph(t, g, 10, true)
	if g.M() != 9 || g.MaxDegree() != 2 {
		t.Fatalf("M=%d maxdeg=%d", g.M(), g.MaxDegree())
	}
	if g.Diameter() != 9 {
		t.Fatalf("path diameter = %d", g.Diameter())
	}
}

func TestRing(t *testing.T) {
	g := build(t, "ring", 12, 2, SeededOptions{})
	checkGraph(t, g, 12, true)
	if g.M() != 12 {
		t.Fatalf("M = %d", g.M())
	}
	for u := 0; u < g.N(); u++ {
		if g.Degree(graph.NodeID(u)) != 2 {
			t.Fatalf("ring degree at %d = %d", u, g.Degree(graph.NodeID(u)))
		}
	}
	if g.Diameter() != 6 {
		t.Fatalf("ring diameter = %d", g.Diameter())
	}
}

func TestGrid(t *testing.T) {
	g := Grid(4, 5, 3, SeededOptions{})
	checkGraph(t, g, 20, true)
	if g.M() != 4*4+3*5 {
		t.Fatalf("grid M = %d", g.M())
	}
	if g.Diameter() != 3+4 {
		t.Fatalf("grid diameter = %d", g.Diameter())
	}
	// The "grid" family is the largest square grid that fits in n.
	sq := build(t, "grid", 20, 3, SeededOptions{})
	checkGraph(t, sq, 16, true)
	if sq.M() != 2*4*3 || sq.Diameter() != 6 {
		t.Fatalf("grid family n=20: M=%d diam=%d, want the 4x4 grid", sq.M(), sq.Diameter())
	}
}

func TestComplete(t *testing.T) {
	g := build(t, "complete", 7, 5, SeededOptions{})
	checkGraph(t, g, 7, true)
	if g.M() != 21 || g.Diameter() != 1 {
		t.Fatalf("K7: M=%d diam=%d", g.M(), g.Diameter())
	}
}

func TestStar(t *testing.T) {
	g := build(t, "star", 9, 7, SeededOptions{})
	checkGraph(t, g, 9, true)
	if g.MaxDegree() != 8 || g.M() != 8 {
		t.Fatal("star shape wrong")
	}
}

func TestBinaryTree(t *testing.T) {
	g := build(t, "binarytree", 15, 8, SeededOptions{})
	checkGraph(t, g, 15, true)
	if g.M() != 14 || g.MaxDegree() != 3 {
		t.Fatalf("binary tree: M=%d maxdeg=%d", g.M(), g.MaxDegree())
	}
}

func TestCaterpillar(t *testing.T) {
	g := build(t, "caterpillar", 11, 9, SeededOptions{})
	checkGraph(t, g, 11, true)
	if g.M() != 10 {
		t.Fatalf("caterpillar M = %d", g.M())
	}
}

func TestRandomTree(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		g := build(t, "tree", 40, seed, SeededOptions{})
		checkGraph(t, g, 40, true)
		if g.M() != 39 {
			t.Fatalf("tree M = %d", g.M())
		}
	}
}

func TestRandomConnected(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		g := RandomConnected(30, 70, seed, SeededOptions{})
		checkGraph(t, g, 30, true)
		if g.M() != 70 {
			t.Fatalf("M = %d, want 70", g.M())
		}
	}
	// Clamping.
	g := RandomConnected(5, 1, 1, SeededOptions{})
	if g.M() != 4 {
		t.Fatalf("clamped low M = %d", g.M())
	}
	g = RandomConnected(5, 100, 1, SeededOptions{})
	if g.M() != 10 {
		t.Fatalf("clamped high M = %d", g.M())
	}
}

func TestLollipop(t *testing.T) {
	g := build(t, "lollipop", 12, 30, SeededOptions{})
	checkGraph(t, g, 12, true)
	clique := 6
	wantM := clique*(clique-1)/2 + (12 - clique)
	if g.M() != wantM {
		t.Fatalf("lollipop M = %d, want %d", g.M(), wantM)
	}
	// Diameter is dominated by the tail.
	if g.Diameter() < 12-clique {
		t.Fatalf("lollipop diameter = %d, too small", g.Diameter())
	}
}

func TestWheel(t *testing.T) {
	g := build(t, "wheel", 10, 31, SeededOptions{})
	checkGraph(t, g, 10, true)
	if g.M() != 2*(10-1) {
		t.Fatalf("wheel M = %d", g.M())
	}
	if g.Degree(0) != 9 {
		t.Fatalf("hub degree = %d", g.Degree(0))
	}
	if g.Diameter() != 2 {
		t.Fatalf("wheel diameter = %d", g.Diameter())
	}
}

func TestExpander(t *testing.T) {
	g := build(t, "expander", 50, 10, SeededOptions{})
	checkGraph(t, g, 50, true)
	if g.Diameter() > 10 {
		t.Fatalf("expander diameter suspiciously large: %d", g.Diameter())
	}
}

func TestWeightModes(t *testing.T) {
	g := build(t, "complete", 8, 11, SeededOptions{Weights: WeightsDistinct})
	seen := map[graph.Weight]bool{}
	for _, e := range g.Edges() {
		if seen[e.W] {
			t.Fatal("distinct mode produced a duplicate weight")
		}
		seen[e.W] = true
		if e.W < 1 || e.W > graph.Weight(g.M()) {
			t.Fatalf("weight %d out of range", e.W)
		}
	}

	g = build(t, "complete", 8, 12, SeededOptions{Weights: WeightsUnit})
	for _, e := range g.Edges() {
		if e.W != 1 {
			t.Fatal("unit mode produced non-unit weight")
		}
	}

	// Random weights need not tie, but must lie in [1, m/2+1].
	g = build(t, "complete", 8, 13, SeededOptions{Weights: WeightsRandom})
	for _, e := range g.Edges() {
		if e.W < 1 || e.W > graph.Weight(g.M()/2+1) {
			t.Fatalf("random weight %d out of range", e.W)
		}
	}
}

func TestWeightModeString(t *testing.T) {
	if WeightsDistinct.String() != "distinct" || WeightsUnit.String() != "unit" ||
		WeightsRandom.String() != "random" || WeightMode(42).String() == "" {
		t.Fatal("WeightMode.String broken")
	}
}

func TestDeterminism(t *testing.T) {
	a := RandomConnected(25, 60, 99, SeededOptions{})
	b := RandomConnected(25, 60, 99, SeededOptions{})
	if err := graph.Equal(a, b); err != nil {
		t.Fatalf("same seed produced different graphs: %v", err)
	}
}

func TestPortShuffling(t *testing.T) {
	// With KeepPorts the port labelling is canonical; without it two seeds
	// should (almost surely) differ somewhere on a large graph.
	a := build(t, "complete", 10, 1, SeededOptions{KeepPorts: true, KeepIDs: true})
	b := build(t, "complete", 10, 2, SeededOptions{KeepPorts: true, KeepIDs: true})
	for i := 0; i < a.M(); i++ {
		ea, eb := a.Edge(graph.EdgeID(i)), b.Edge(graph.EdgeID(i))
		if ea.U != eb.U || ea.V != eb.V || ea.PU != eb.PU || ea.PV != eb.PV {
			t.Fatal("KeepPorts should fix the edge order and port labelling")
		}
	}
	c := build(t, "complete", 10, 3, SeededOptions{KeepIDs: true})
	diff := false
	for i := 0; i < a.M(); i++ {
		if a.Edge(graph.EdgeID(i)).PU != c.Edge(graph.EdgeID(i)).PU ||
			a.Edge(graph.EdgeID(i)).PV != c.Edge(graph.EdgeID(i)).PV {
			diff = true
		}
	}
	if !diff {
		t.Fatal("port shuffling had no effect (astronomically unlikely)")
	}
}

func TestKeepIDs(t *testing.T) {
	g := build(t, "path", 6, 20, SeededOptions{KeepIDs: true})
	for u := 0; u < g.N(); u++ {
		if g.ID(graph.NodeID(u)) != int64(u+1) {
			t.Fatal("KeepIDs should give identity IDs")
		}
	}
}

func TestFamilies(t *testing.T) {
	for _, name := range Names() {
		for _, n := range []int{8, 33} {
			g := build(t, name, n, uint64(n), SeededOptions{})
			if err := g.Validate(); err != nil {
				t.Fatalf("family %s n=%d: %v", name, n, err)
			}
			if !g.Connected() {
				t.Fatalf("family %s n=%d: not connected", name, n)
			}
			if g.N() < n/2 || g.N() > 2*n {
				t.Fatalf("family %s n=%d: produced %d nodes", name, n, g.N())
			}
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"path", "ring", "grid", "tree", "random", "expander", "star", "caterpillar", "binarytree", "complete", "wheel", "lollipop"} {
		if _, err := BuildSeeded(name, 10, 1, SeededOptions{}); err != nil {
			t.Fatalf("BuildSeeded(%q): %v", name, err)
		}
	}
	if _, err := BuildSeeded("nope", 10, 1, SeededOptions{}); err == nil {
		t.Fatal("expected error for unknown family")
	}
}

// TestRegistryUnified pins the single family table: Names lists every
// family exactly once, and every listed name builds, so -family sweeps
// and listings can never disagree.
func TestRegistryUnified(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range Names() {
		if seen[name] {
			t.Fatalf("duplicate registered family %q", name)
		}
		seen[name] = true
		if _, err := BuildSeeded(name, 10, 1, SeededOptions{}); err != nil {
			t.Fatalf("registered family %q not buildable: %v", name, err)
		}
	}
	if len(seen) != 12 {
		t.Fatalf("%d families registered, want 12", len(seen))
	}
	for _, want := range []string{"star", "wheel", "lollipop", "caterpillar", "binarytree", "complete"} {
		if !seen[want] {
			t.Fatalf("family %q missing from the family table", want)
		}
	}
}

// TestGenerate covers the error-returning entry point: valid sizes
// succeed, sizes below the structural minimum are clamped up, and
// n ≤ 0 or an unknown family return errors (never panics).
func TestGenerate(t *testing.T) {
	for _, name := range Names() {
		g := build(t, name, 10, 7, SeededOptions{})
		if err := g.Validate(); err != nil {
			t.Fatalf("%s(10): %v", name, err)
		}
		if g := build(t, name, 1, 7, SeededOptions{}); !g.Connected() {
			t.Fatalf("%s(1): clamped build not connected", name)
		}
		if _, err := BuildSeeded(name, 0, 7, SeededOptions{}); err == nil {
			t.Fatalf("%s(0): expected error", name)
		}
		if _, err := BuildSeeded(name, -3, 7, SeededOptions{}); err == nil {
			t.Fatalf("%s(-3): expected error", name)
		}
	}
	if g := build(t, "ring", 8, 1, SeededOptions{}); g.N() != 8 {
		t.Fatalf("ring(8) has %d nodes", g.N())
	}
}

// TestGeneratorPanics pins that the two shape builders reject invalid
// sizes by panicking, as a programming error.
func TestGeneratorPanics(t *testing.T) {
	cases := []func(){
		func() { RandomConnected(0, 3, 1, SeededOptions{}) },
		func() { Grid(0, 3, 1, SeededOptions{}) },
		func() { Grid(3, -1, 1, SeededOptions{}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

// TestGeneratorsDeterministic pins that the randomised builders are a
// pure function of the seed, whatever the worker count.
func TestGeneratorsDeterministic(t *testing.T) {
	g1 := RandomConnected(200, 600, 9, SeededOptions{Workers: 1})
	g2 := RandomConnected(200, 600, 9, SeededOptions{Workers: 4})
	if err := graph.Equal(g1, g2); err != nil {
		t.Fatalf("RandomConnected not deterministic: %v", err)
	}
	x1 := build(t, "expander", 150, 10, SeededOptions{Workers: 1})
	x2 := build(t, "expander", 150, 10, SeededOptions{Workers: 4})
	if err := graph.Equal(x1, x2); err != nil {
		t.Fatalf("expander not deterministic: %v", err)
	}
}
