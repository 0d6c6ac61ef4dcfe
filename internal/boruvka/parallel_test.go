package boruvka

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
)

// observable projects the deterministic, exported state of a
// decomposition — its flat outputs plus every retained phase and the
// spanning fragment as collected from the visitor (the scratch buffers
// legitimately differ with worker scheduling; everything observable
// must not).
type observable struct {
	Root        graph.NodeID
	Phases      []phaseRecord
	TotalPhases int
	Final       phaseRecord
	TreeEdges   []graph.EdgeID
	ParentPort  []int
	ParentEdge  []graph.EdgeID
	SelPhase    []int
}

// project collects the retained phases — the prefix Fragments accepts —
// and the spanning fragment.
func project(t *testing.T, d *Decomposition) observable {
	t.Helper()
	var recs []phaseRecord
	for i := 1; i <= d.TotalPhases; i++ {
		rec, err := collectPhase(d, i)
		if err != nil {
			break
		}
		recs = append(recs, rec)
	}
	final, err := collectPhase(d, d.TotalPhases+1)
	if err != nil {
		t.Fatal(err)
	}
	return observable{d.Root, recs, d.TotalPhases, final,
		d.TreeEdges, d.ParentPort, d.ParentEdge, d.SelPhase}
}

// TestDecomposeParallelDeterminism asserts the phase kernel's central
// contract: for every registered graph family and every worker count in
// {1,2,3,4,8,16}, Decompose produces a byte-identical Decomposition —
// with and without phase truncation and the contraction tower — and the
// whole wall holds again under GOMAXPROCS=1, which forces every
// goroutine onto one OS thread and so exercises completely different
// steal schedules. Worker counts above GOMAXPROCS are included
// deliberately — the contract is about the partition into ranges and
// the merge semigroup, not the physical core count. n = 200 puts phase
// 1 above the 64-fragment threshold below which Fragments visits on one
// worker, so the parallel visit is on the wall too.
func TestDecomposeParallelDeterminism(t *testing.T) {
	variants := []struct {
		name string
		opt  Options
	}{
		{"full", Options{}},
		{"keepPhases", Options{KeepPhases: 3}},
		{"keepTower", Options{KeepTower: true}},
	}
	check := func(t *testing.T) {
		for gi, fam := range gen.Names() {
			for _, n := range []int{60, 200} {
				g, err := gen.BuildSeeded(fam, n, uint64(100+gi), gen.SeededOptions{Weights: gen.WeightsRandom})
				if err != nil {
					t.Fatalf("family %s: %v", fam, err)
				}
				for _, va := range variants {
					opt := va.opt
					opt.Workers = 1
					ref, err := Decompose(g, 0, opt)
					if err != nil {
						t.Fatalf("family %s n=%d %s workers=1: %v", fam, n, va.name, err)
					}
					want := project(t, ref)
					for _, workers := range []int{2, 3, 4, 8, 16} {
						opt.Workers = workers
						d, err := Decompose(g, 0, opt)
						if err != nil {
							t.Fatalf("family %s n=%d %s workers=%d: %v", fam, n, va.name, workers, err)
						}
						if !reflect.DeepEqual(project(t, d), want) {
							t.Fatalf("family %s n=%d %s: decomposition differs at workers=%d", fam, n, va.name, workers)
						}
						if va.opt.KeepTower && !reflect.DeepEqual(d.Tower, ref.Tower) {
							t.Fatalf("family %s n=%d: tower differs at workers=%d", fam, n, workers)
						}
					}
				}
			}
		}
	}
	check(t)
	t.Run("gomaxprocs1", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		check(t)
	})
}

// TestDecomposeKeepPhases asserts that KeepPhases retains exactly a
// prefix of the full phase list — every retained phase visits the same
// fragments as the full run, every later phase is refused with an error
// — and leaves every whole-run output and the spanning fragment
// untouched, including when KeepPhases exceeds TotalPhases and the
// spanning fragment is synthesised without any retained record, across
// worker counts.
func TestDecomposeKeepPhases(t *testing.T) {
	for _, tc := range []struct {
		g    *graph.Graph
		root graph.NodeID
	}{
		{gen.RandomConnected(120, 360, 7, gen.SeededOptions{}), 3},
		{gen.RandomConnected(180, 540, 42, gen.SeededOptions{}), 0},
	} {
		g, root := tc.g, tc.root
		full, err := Decompose(g, root, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := project(t, full)
		for keep := 0; keep <= full.TotalPhases+5; keep++ {
			for _, workers := range []int{1, 3, 8} {
				d, err := Decompose(g, root, Options{Workers: workers, KeepPhases: keep})
				if err != nil {
					t.Fatalf("keep=%d workers=%d: %v", keep, workers, err)
				}
				kept := full.TotalPhases
				if keep > 0 {
					kept = min(keep, full.TotalPhases)
				}
				got := project(t, d)
				if len(got.Phases) != kept {
					t.Fatalf("keep=%d workers=%d: %d phases retained, want %d", keep, workers, len(got.Phases), kept)
				}
				if !reflect.DeepEqual(got.Phases, want.Phases[:kept]) {
					t.Fatalf("keep=%d workers=%d: retained phases differ from the full prefix", keep, workers)
				}
				for i := kept + 1; i <= full.TotalPhases; i++ {
					if err := d.Fragments(i, func(int, Fragment) error { return nil }); err == nil {
						t.Fatalf("keep=%d workers=%d: phase %d visited past the retained prefix", keep, workers, i)
					}
				}
				if !reflect.DeepEqual(got.Final, want.Final) {
					t.Fatalf("keep=%d workers=%d: spanning fragment differs", keep, workers)
				}
				if d.TotalPhases != full.TotalPhases ||
					!reflect.DeepEqual(d.TreeEdges, full.TreeEdges) ||
					!reflect.DeepEqual(d.ParentPort, full.ParentPort) ||
					!reflect.DeepEqual(d.ParentEdge, full.ParentEdge) ||
					!reflect.DeepEqual(d.SelPhase, full.SelPhase) {
					t.Fatalf("keep=%d workers=%d: whole-run outputs differ", keep, workers)
				}
			}
		}
	}
}

// TestDecomposeStreamMatchesRich replays the streamed fragments of a
// truncated, parallel run against the rich records of a fully retained
// single-worker run collected up front: every phase, fragment,
// annotation and selection must agree, each fragment must be visited
// exactly once on a worker index inside the pool, and the BFS views must
// stay valid after later visits reuse the decomposition — for a
// retention budget the run outlives and for ones it does not (where the
// spanning fragment is synthesised without a retained record), across
// worker counts.
func TestDecomposeStreamMatchesRich(t *testing.T) {
	g := gen.RandomConnected(180, 540, 42, gen.SeededOptions{})
	full, err := Decompose(g, 0, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rich, richFinal := phases(t, full)
	for _, keep := range []int{0, 2, full.TotalPhases, full.TotalPhases + 1, full.TotalPhases + 5} {
		for _, workers := range []int{1, 3, 8} {
			d, err := Decompose(g, 0, Options{Workers: workers, KeepPhases: keep})
			if err != nil {
				t.Fatalf("keep=%d workers=%d: %v", keep, workers, err)
			}
			kept := full.TotalPhases
			if keep > 0 {
				kept = min(keep, full.TotalPhases)
			}
			// Visit every retained phase and the spanning fragment before
			// comparing anything, keeping the BFS views uncopied.
			streamed := make([][]Fragment, kept+1)
			for pi := 1; pi <= kept+1; pi++ {
				phase := pi
				if pi == kept+1 {
					phase = full.TotalPhases + 1
				}
				var mu sync.Mutex
				err := d.Fragments(phase, func(w int, f Fragment) error {
					if w < 0 || w >= workers {
						return fmt.Errorf("phase %d fragment %d visited on worker %d of %d", phase, f.ID, w, workers)
					}
					mu.Lock()
					streamed[pi-1] = append(streamed[pi-1], f)
					mu.Unlock()
					return nil
				})
				if err != nil {
					t.Fatalf("keep=%d workers=%d: %v", keep, workers, err)
				}
			}
			for pi := 1; pi <= kept+1; pi++ {
				got := streamed[pi-1]
				slices.SortFunc(got, func(a, b Fragment) int { return int(a.ID) - int(b.ID) })
				want := []Fragment{richFinal}
				if pi <= kept {
					want = rich[pi-1].Fragments
				}
				if len(got) != len(want) {
					t.Fatalf("keep=%d workers=%d: visit %d streamed %d fragments, want %d", keep, workers, pi, len(got), len(want))
				}
				for fi := range want {
					if !reflect.DeepEqual(got[fi], want[fi]) {
						t.Fatalf("keep=%d workers=%d: visit %d fragment %d streamed %+v mismatches rich record %+v",
							keep, workers, pi, fi, got[fi], want[fi])
					}
				}
			}
		}
	}
}

// TestFragmentsNotRetained pins the truncation semantics: a phase
// outside the retained prefix (other than the spanning fragment at
// TotalPhases+1) is an error, never a panic or a silent empty visit.
func TestFragmentsNotRetained(t *testing.T) {
	g := gen.RandomConnected(64, 128, 8, gen.SeededOptions{})
	d, err := Decompose(g, 0, Options{KeepPhases: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d.TotalPhases <= 2 {
		t.Skipf("graph merged in %d phases; need > 2 for the truncation case", d.TotalPhases)
	}
	rec, err := collectPhase(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Fragments) != g.N() {
		t.Fatalf("phase 1 has %d fragments, want %d singletons", len(rec.Fragments), g.N())
	}
	for _, i := range []int{-1, 0, 2, d.TotalPhases, d.TotalPhases + 2} {
		visited := false
		err := d.Fragments(i, func(int, Fragment) error { visited = true; return nil })
		if err == nil || visited {
			t.Fatalf("phase %d: err=%v visited=%v, want an error and no visit", i, err, visited)
		}
	}
	if _, err := collectPhase(d, d.TotalPhases+1); err != nil {
		t.Fatalf("spanning fragment: %v", err)
	}
}

// TestFragmentsVisitError asserts that a visit error aborts the call
// with the lowest failing fragment's error at any worker count.
func TestFragmentsVisitError(t *testing.T) {
	g := gen.RandomConnected(300, 900, 9, gen.SeededOptions{})
	for _, workers := range []int{1, 2, 8} {
		d, err := Decompose(g, 0, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		err = d.Fragments(1, func(_ int, f Fragment) error {
			if f.ID%100 == 7 {
				return fmt.Errorf("fragment %d", f.ID)
			}
			return nil
		})
		if err == nil || err.Error() != "fragment 7" {
			t.Fatalf("workers=%d: got %v, want the lowest failure (fragment 7)", workers, err)
		}
	}
}
