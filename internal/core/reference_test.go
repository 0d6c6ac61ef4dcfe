package core

import (
	"mstadvice/internal/bitstring"
	"mstadvice/internal/boruvka"
	"mstadvice/internal/graph"
	"mstadvice/internal/par"
)

// buildAdviceReference is the two-pass reference encoder that
// TestFusedMatchesReference holds the fused encoder to: it materialises
// every Phase and Fragment record of the decomposition first, then packs
// phase by phase and assigns the final stage from those records.
func buildAdviceReference(g *graph.Graph, root graph.NodeID, cap, workers int) (*AdviceDetail, error) {
	b := newAdviceBuilder(g, cap, workers)
	if g.N() > 1 {
		// The packing reads only phases 1..P and the partition at the
		// start of phase P+1, so later phases need not be recorded.
		d, err := boruvka.DecomposeOpt(g, root, boruvka.Options{
			Workers:    b.workers,
			KeepPhases: b.sched.P + 1,
		})
		if err != nil {
			return nil, err
		}
		b.d = d
		for i := 1; i <= b.sched.P && i <= d.NumPhases(); i++ {
			if err := b.packPhase(i); err != nil {
				return nil, err
			}
		}
		if err := b.assignFinal(); err != nil {
			return nil, err
		}
	}
	return b.detail()
}

// packPhase streams A(F) for every selecting fragment of phase i, in
// parallel over fragment ranges (each fragment writes only its own BFS
// nodes). Per-worker scratch strings keep the loop allocation-free;
// par.FirstFailure merges worker errors so the reported failure is the
// one a sequential scan would hit first.
func (b *adviceBuilder) packPhase(i int) error {
	ph := &b.d.Phases[i-1]
	nf := len(ph.Fragments)
	workers := b.workers
	if nf < 64 {
		workers = 1
	}
	return par.FirstFailure(workers, nf, func(_, lo, hi int) (int, error) {
		a := bitstring.New(i + 2)
		for fi := lo; fi < hi; fi++ {
			f := &ph.Fragments[fi]
			if f.Sel == nil {
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
func (b *adviceBuilder) assignFinal() error {
	lastPacked := b.sched.P
	if b.d.NumPhases() < lastPacked {
		lastPacked = b.d.NumPhases()
	}
	frags := b.d.FragmentsAtStart(lastPacked + 1)
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
			value, port, err := b.finalString(f.Root, f.Size())
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
