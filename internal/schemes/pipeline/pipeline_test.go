package pipeline

import (
	"testing"

	"mstadvice/internal/advice"
	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
	"mstadvice/internal/mst"
	"mstadvice/internal/sim"
)

func run(t *testing.T, g *graph.Graph) *advice.Result {
	t.Helper()
	res, err := advice.Run(Scheme{}, g, 0, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCorrectAcrossFamilies(t *testing.T) {
	for _, mode := range []gen.WeightMode{gen.WeightsDistinct, gen.WeightsRandom, gen.WeightsUnit} {
		for _, fam := range gen.Names() {
			for _, n := range []int{1, 2, 3, 8, 21, 48} {
				if n < 2 && fam != "path" && fam != "tree" {
					continue
				}
				g := mustGen(fam, n, uint64(n*5+int(mode)*771), gen.SeededOptions{Weights: mode})
				res := run(t, g)
				if !res.Verified {
					t.Fatalf("%s/%s n=%d: not the MST: %v", fam, mode, n, res.VerifyErr)
				}
				if res.Advice.TotalBits != 0 {
					t.Fatal("pipeline must use zero advice")
				}
			}
		}
	}
}

// The output tree is rooted at the minimum-ID node (the elected leader).
func TestRootIsMinID(t *testing.T) {
	g := gen.RandomConnected(30, 90, 3, gen.SeededOptions{})
	res := run(t, g)
	want := graph.NodeID(0)
	for u := 0; u < g.N(); u++ {
		if g.ID(graph.NodeID(u)) < g.ID(want) {
			want = graph.NodeID(u)
		}
	}
	if res.Root != want {
		t.Fatalf("root %d, want min-ID node %d", res.Root, want)
	}
	tree, err := mst.EdgesFromParentPorts(g, res.ParentPorts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := mst.Kruskal(g)
	if err != nil {
		t.Fatal(err)
	}
	if !mst.SameEdges(tree, ref) {
		t.Fatal("tree differs from reference MST")
	}
}

// CONGEST: single-record messages only.
func TestCongestMessages(t *testing.T) {
	g := gen.RandomConnected(50, 150, 5, gen.SeededOptions{})
	res := run(t, g)
	cm := sim.NewCostModel(g)
	bound := 2*cm.IDBits + 2*cm.PortBits + cm.WeightBits // largest message type
	if res.MaxMsgBits > bound {
		t.Fatalf("max message %d bits > single-record bound %d", res.MaxMsgBits, bound)
	}
}

// The profile is Θ(n + D): linear even on low-diameter graphs (that is
// what distinguishes it from the fragment-growing baseline).
func TestLinearRounds(t *testing.T) {
	rounds := map[int]int{}
	for _, n := range []int{32, 128, 512} {
		g := mustGen("expander", n, uint64(n), gen.SeededOptions{})
		res := run(t, g)
		rounds[n] = res.Rounds
		if res.Rounds < n/2 {
			t.Fatalf("n=%d: %d rounds — too fast for a pipeline over n assignments", n, res.Rounds)
		}
		if res.Rounds > 8*n {
			t.Fatalf("n=%d: %d rounds — super-linear", n, res.Rounds)
		}
	}
	if rounds[512] < 2*rounds[128] {
		t.Fatalf("rounds not scaling linearly: %v", rounds)
	}
}

// Heavy ties: the global order must keep upcast streams strictly sorted.
func TestUnitWeights(t *testing.T) {
	g := mustGen("complete", 24, 8, gen.SeededOptions{Weights: gen.WeightsUnit})
	res := run(t, g)
	if !res.Verified {
		t.Fatal(res.VerifyErr)
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() *graph.Graph {
		return gen.RandomConnected(40, 100, 11, gen.SeededOptions{})
	}
	a, err := advice.Run(Scheme{}, mk(), 0, sim.Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := advice.Run(Scheme{}, mk(), 0, sim.Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds || a.Messages != b.Messages {
		t.Fatalf("divergence: rounds %d/%d msgs %d/%d", a.Rounds, b.Rounds, a.Messages, b.Messages)
	}
	for u := range a.ParentPorts {
		if a.ParentPorts[u] != b.ParentPorts[u] {
			t.Fatalf("outputs differ at node %d", u)
		}
	}
}

// Lollipop: the adversarial family where both no-advice baselines pay
// linearly while the 12-bit scheme stays logarithmic (cross-checked in
// the facade tests).
func TestLollipop(t *testing.T) {
	g := mustGen("lollipop", 60, 13, gen.SeededOptions{})
	res := run(t, g)
	if !res.Verified {
		t.Fatal(res.VerifyErr)
	}
	if res.Rounds < g.N()/2 {
		t.Fatalf("lollipop solved in %d rounds — suspicious", res.Rounds)
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
