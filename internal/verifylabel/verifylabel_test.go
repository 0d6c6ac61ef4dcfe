package verifylabel

import (
	"math/rand"
	"testing"

	"mstadvice/internal/advice"
	"mstadvice/internal/core"
	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
	"mstadvice/internal/mst"
	"mstadvice/internal/sim"
)

func treeOutput(t *testing.T, g *graph.Graph, root graph.NodeID) []int {
	t.Helper()
	tree, err := mst.Kruskal(g)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := mst.Root(g, tree, root)
	if err != nil {
		t.Fatal(err)
	}
	return pp
}

// Completeness: honest outputs with honest labels are accepted by every
// node, across families and weight modes.
func TestCompleteness(t *testing.T) {
	for _, fam := range gen.Names() {
		for _, n := range []int{2, 9, 40} {
			rng := rand.New(rand.NewSource(int64(n)))
			g := mustGen(fam, n, rng.Uint64(), gen.SeededOptions{})
			pp := treeOutput(t, g, graph.NodeID(rng.Intn(g.N())))
			labels, err := Assign(g, pp)
			if err != nil {
				t.Fatal(err)
			}
			ok, verdicts, err := Check(g, pp, labels)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("%s n=%d: honest proof rejected: %v", fam, n, verdicts)
			}
		}
	}
}

// Soundness against corrupted labels: flipping any single label field
// must make at least one node reject.
func TestSoundnessLabelCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := gen.RandomConnected(20, 50, rng.Uint64(), gen.SeededOptions{})
	pp := treeOutput(t, g, 0)
	for trial := 0; trial < 20; trial++ {
		labels, err := Assign(g, pp)
		if err != nil {
			t.Fatal(err)
		}
		u := rng.Intn(g.N())
		if rng.Intn(2) == 0 {
			labels[u].Depth += 1 + rng.Intn(3)
		} else {
			labels[u].RootID += 1 + rng.Int63n(5)
		}
		ok, _, err := Check(g, pp, labels)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatalf("trial %d: corrupted label accepted", trial)
		}
	}
}

// Soundness against corrupted outputs: re-pointing one node's parent to
// another neighbour must be rejected under honest labels for the true
// tree — unless that neighbour sits exactly one level up, in which case
// the new pointers are another spanning tree the same labels certify,
// and acceptance is the correct verdict.
func TestSoundnessOutputCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := gen.RandomConnected(20, 60, rng.Uint64(), gen.SeededOptions{})
	pp := treeOutput(t, g, 0)
	labels, err := Assign(g, pp)
	if err != nil {
		t.Fatal(err)
	}
	rejected := 0
	for trial := 0; trial < 20; trial++ {
		u := 1 + rng.Intn(g.N()-1) // not the root
		alt := rng.Intn(g.Degree(graph.NodeID(u)))
		if alt == pp[u] {
			continue
		}
		bad := append([]int(nil), pp...)
		bad[u] = alt
		ok, _, err := Check(g, bad, labels)
		if err != nil {
			t.Fatal(err)
		}
		stillTree := labels[g.HalfAt(graph.NodeID(u), alt).To].Depth == labels[u].Depth-1
		if ok != stillTree {
			t.Fatalf("trial %d: accepted=%v for a re-pointing that leaves a certified tree=%v", trial, ok, stillTree)
		}
		if !ok {
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("no trial corrupted the output into an uncertified one")
	}
}

// Two disjoint consistent trees must be caught by the root-ID agreement
// check (the classic counterexample to parent-only verification).
func TestSoundnessTwoTrees(t *testing.T) {
	// Path 0-1-2-3: claim 0 and 3 are both roots with 1 under 0 and 2
	// under 3, and give each half consistent labels.
	g := graph.NewBuilder(4).
		AddEdge(0, 1, 1).
		AddEdge(1, 2, 1).
		AddEdge(2, 3, 1).
		MustBuild()
	pp := []int{-1, 0, 1, -1}
	// Forged labels: left tree rooted at ID(0), right tree at ID(3).
	labels := []Label{
		{RootID: g.ID(0), Depth: 0},
		{RootID: g.ID(0), Depth: 1},
		{RootID: g.ID(3), Depth: 1},
		{RootID: g.ID(3), Depth: 0},
	}
	ok, verdicts, err := Check(g, pp, labels)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("two disjoint trees accepted: %v", verdicts)
	}
}

// Assign rejects outputs that are not spanning trees.
func TestAssignRejects(t *testing.T) {
	g := graph.NewBuilder(3).
		AddEdge(0, 1, 1).
		AddEdge(1, 2, 1).
		AddEdge(0, 2, 1).
		MustBuild()
	if _, err := Assign(g, []int{-1, -1, 0}); err == nil {
		t.Error("two roots accepted")
	}
	if _, err := Assign(g, []int{0, 0, 0}); err == nil {
		t.Error("rootless cycle accepted")
	}
}

// End-to-end: verify the Theorem 3 scheme's distributed output with the
// one-round checker — construction and verification compose.
func TestVerifiesCoreOutput(t *testing.T) {
	g := gen.RandomConnected(40, 120, 9, gen.SeededOptions{})
	res, err := advice.Run(core.Scheme{}, g, 5, sim.Options{})
	if err != nil || !res.Verified {
		t.Fatalf("%v %v", err, res)
	}
	labels, err := Assign(g, res.ParentPorts)
	if err != nil {
		t.Fatal(err)
	}
	ok, _, err := Check(g, res.ParentPorts, labels)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("one-round verifier rejected the core scheme's output")
	}
}

// mustGen builds an instance of a generator family; the arguments are
// fixed by the test, so an error is a bug and panics.
func mustGen(family string, n int, seed uint64, opt gen.SeededOptions) *graph.Graph {
	g, err := gen.BuildSeeded(family, n, seed, opt)
	if err != nil {
		panic(err)
	}
	return g
}
