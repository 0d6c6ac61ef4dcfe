package core

import (
	"sort"
	"sync"

	"mstadvice/internal/bitstring"
	"mstadvice/internal/boruvka"
	"mstadvice/internal/graph"
	"mstadvice/internal/par"
)

// buildAdviceReference is the two-pass reference encoder that
// TestFusedMatchesReference holds the fused encoder to: it collects
// every visited fragment of a phase into records first, then packs
// phase by phase and assigns the final stage from those records.
func buildAdviceReference(g *graph.Graph, root graph.NodeID, cap, workers int) (*AdviceDetail, error) {
	b := newAdviceBuilder(g, cap, workers)
	if g.N() > 1 {
		// The packing reads only phases 1..P and the partition at the
		// start of phase P+1, so later phases need not be retained.
		d, err := boruvka.Decompose(g, root, boruvka.Options{
			Workers:    b.workers,
			KeepPhases: b.sched.P + 1,
		})
		if err != nil {
			return nil, err
		}
		lastPacked := min(b.sched.P, d.TotalPhases)
		for i := 1; i <= lastPacked; i++ {
			frags, err := collectFragments(d, i)
			if err != nil {
				return nil, err
			}
			if err := b.packPhase(i, frags); err != nil {
				return nil, err
			}
		}
		frags, err := collectFragments(d, lastPacked+1)
		if err != nil {
			return nil, err
		}
		if err := b.assignFinal(d, frags); err != nil {
			return nil, err
		}
	}
	return b.detail()
}

// collectFragments materialises the fragments Decomposition.Fragments
// visits at phase i as records indexed by fragment ID.
func collectFragments(d *boruvka.Decomposition, i int) ([]boruvka.Fragment, error) {
	var mu sync.Mutex
	var frags []boruvka.Fragment
	err := d.Fragments(i, func(_ int, f boruvka.Fragment) error {
		mu.Lock()
		frags = append(frags, f)
		mu.Unlock()
		return nil
	})
	sort.Slice(frags, func(a, b int) bool { return frags[a].ID < frags[b].ID })
	return frags, err
}

// packPhase streams A(F) for every selecting fragment of phase i, in
// parallel over fragment ranges (each fragment writes only its own BFS
// nodes). Per-worker scratch strings keep the loop allocation-free;
// par.FirstFailure merges worker errors so the reported failure is the
// one a sequential scan would hit first.
func (b *adviceBuilder) packPhase(i int, frags []boruvka.Fragment) error {
	nf := len(frags)
	workers := b.workers
	if nf < 64 {
		workers = 1
	}
	return par.FirstFailure(workers, nf, func(_, lo, hi int) (int, error) {
		a := bitstring.New(i + 2)
		for fi := lo; fi < hi; fi++ {
			f := &frags[fi]
			if !f.HasSel {
				continue
			}
			if err := b.packBits(i, f.BFS, f.Sel.Chooser, f.Sel.Up, f.Level == 1, a); err != nil {
				return fi, err
			}
		}
		return -1, nil
	})
}

// assignFinal distributes the Width-bit final string of every fragment
// remaining after phase P, one bit per BFS node, in parallel over
// fragment ranges (fragments own disjoint carrier nodes). The carrier
// lists live in one slab sized len(frags)·Width.
func (b *adviceBuilder) assignFinal(d *boruvka.Decomposition, frags []boruvka.Fragment) error {
	width := b.sched.Width
	b.frags = make([]FinalFragment, len(frags))
	carrierSlab := make([]graph.NodeID, len(frags)*width)
	workers := b.workers
	if len(frags) < 64 {
		workers = 1
	}
	return par.FirstFailure(workers, len(frags), func(_, lo, hi int) (int, error) {
		for fi := lo; fi < hi; fi++ {
			f := &frags[fi]
			value, port, err := b.finalString(d, f.Root, f.Size())
			if err != nil {
				return fi, err
			}
			carriers := carrierSlab[fi*width : (fi+1)*width : (fi+1)*width]
			for k := 0; k < width; k++ {
				b.final[f.BFS[k]] = value>>uint(k)&1 == 1
				carriers[k] = f.BFS[k]
			}
			b.frags[fi] = FinalFragment{
				Root:       f.Root,
				ParentPort: port,
				Carriers:   carriers,
				Value:      value,
			}
		}
		return -1, nil
	})
}
