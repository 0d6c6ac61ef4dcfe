package core

import (
	"reflect"
	"runtime"
	"testing"

	"mstadvice/internal/graph/gen"
)

// equalDetail fails the test unless two advice details agree on every
// observable byte: advice strings, packed regions, final bits, final
// fragments and width.
func equalDetail(t *testing.T, label string, ref, d *AdviceDetail) {
	t.Helper()
	if d.Width != ref.Width {
		t.Fatalf("%s: width %d, want %d", label, d.Width, ref.Width)
	}
	for u := range ref.Advice {
		if !ref.Advice[u].Equal(d.Advice[u]) {
			t.Fatalf("%s: advice of node %d is %s, want %s", label, u, d.Advice[u], ref.Advice[u])
		}
		if !ref.Packed[u].Equal(d.Packed[u]) {
			t.Fatalf("%s: packed region of node %d differs", label, u)
		}
	}
	if !reflect.DeepEqual(d.Final, ref.Final) {
		t.Fatalf("%s: final bits differ", label)
	}
	if len(d.Frags) != len(ref.Frags) {
		t.Fatalf("%s: %d final fragments, want %d", label, len(d.Frags), len(ref.Frags))
	}
	for i := range ref.Frags {
		a, b := ref.Frags[i], d.Frags[i]
		if a.Root != b.Root || a.ParentPort != b.ParentPort || a.Value != b.Value ||
			!reflect.DeepEqual(a.Carriers, b.Carriers) {
			t.Fatalf("%s: final fragment %d differs", label, i)
		}
	}
}

// TestAdviceParallelDeterminism asserts the oracle's determinism
// contract end to end: for every registered graph family and every
// worker count in {1,2,3,4,8,16} (counts above GOMAXPROCS included),
// the fused encoder's advice is byte-identical to the sequential
// oracle's, and the wall holds again under GOMAXPROCS=1, which forces
// every goroutine onto one OS thread and so exercises completely
// different steal schedules.
func TestAdviceParallelDeterminism(t *testing.T) {
	check := func(t *testing.T) {
		for gi, fam := range gen.Names() {
			g, err := gen.BuildSeeded(fam, 70, uint64(300+gi), gen.SeededOptions{Weights: gen.WeightsRandom})
			if err != nil {
				t.Fatalf("family %s: %v", fam, err)
			}
			ref, err := BuildAdviceDetailOpt(g, 0, DefaultCap, OracleOptions{Workers: 1})
			if err != nil {
				t.Fatalf("family %s workers=1: %v", fam, err)
			}
			for _, workers := range []int{2, 3, 4, 8, 16} {
				d, err := BuildAdviceDetailOpt(g, 0, DefaultCap, OracleOptions{Workers: workers})
				if err != nil {
					t.Fatalf("family %s workers=%d: %v", fam, workers, err)
				}
				equalDetail(t, fam, ref, d)
			}
		}
	}
	check(t)
	t.Run("gomaxprocs1", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		check(t)
	})
}

// TestFusedMatchesReference holds the fused streaming encoder and the
// two-pass reference encoder to byte-identical output across families,
// sizes (singleton through several phases) and worker counts.
func TestFusedMatchesReference(t *testing.T) {
	for gi, fam := range gen.Names() {
		for _, n := range []int{1, 2, 9, 70, 300} {
			g, err := gen.BuildSeeded(fam, n, uint64(500+gi+n), gen.SeededOptions{Weights: gen.WeightsRandom})
			if err != nil {
				t.Fatalf("family %s n=%d: %v", fam, n, err)
			}
			ref, err := buildAdviceReference(g, 0, DefaultCap, 4)
			if err != nil {
				t.Fatalf("family %s n=%d reference: %v", fam, n, err)
			}
			for _, workers := range []int{1, 4, 16} {
				d, err := BuildAdviceDetailOpt(g, 0, DefaultCap, OracleOptions{Workers: workers})
				if err != nil {
					t.Fatalf("family %s n=%d fused workers=%d: %v", fam, n, workers, err)
				}
				equalDetail(t, fam, ref, d)
			}
		}
	}
}
