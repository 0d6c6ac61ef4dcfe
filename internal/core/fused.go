package core

import (
	"mstadvice/internal/bitstring"
	"mstadvice/internal/boruvka"
	"mstadvice/internal/graph"
)

// buildFused is the default encoder: it runs the decomposition's pass 1
// once, then visits phases 1..P and the final-stage partition through
// Decomposition.Fragments, packing each annotated fragment into the
// advice arenas the moment it is visited, so no per-phase fragment
// record is ever materialised. Fragments of one phase write disjoint
// node sets and phases are separated by barriers, so the arenas fill in
// exactly the reference order; per-worker scratch strings keep the
// visits allocation-free. Byte-identity with the reference path is
// pinned by TestFusedMatchesReference. See DESIGN.md §2.12.
func (b *adviceBuilder) buildFused(root graph.NodeID) error {
	// The packing reads phases 1..P and the partition at the start of
	// phase P+1 (the spanning fragment when the run ends sooner).
	d, err := boruvka.Decompose(b.g, root, boruvka.Options{
		Workers:    b.workers,
		KeepPhases: b.sched.P + 1,
	})
	if err != nil {
		return err
	}
	// The builder keeps no reference to d: its retained partitions are
	// garbage once the last visit returns, before the advice strings are
	// laid out.
	finalPhase := min(b.sched.P+1, d.TotalPhases+1)
	scratch := make([]*bitstring.BitString, b.workers)
	for w := range scratch {
		scratch[w] = bitstring.New(b.sched.P + 2)
	}
	for i := 1; i < finalPhase; i++ {
		err := d.Fragments(i, func(w int, f boruvka.Fragment) error {
			if !f.HasSel {
				return nil
			}
			return b.packBits(i, f.BFS, f.Sel.Chooser, f.Sel.Up, f.Level == 1, scratch[w])
		})
		if err != nil {
			return err
		}
	}
	// Final-stage fragments are visited in schedule order, so their
	// records collect per worker and scatter into b.frags by fragment
	// index — the reference layout — once the visit completes.
	type finalRec struct {
		fi   boruvka.FragID
		frag FinalFragment
	}
	finals := make([][]finalRec, b.workers)
	width := b.sched.Width
	err = d.Fragments(finalPhase, func(w int, f boruvka.Fragment) error {
		value, port, err := b.finalString(d, f.Root, f.Size())
		if err != nil {
			return err
		}
		for k := 0; k < width; k++ {
			b.final[f.BFS[k]] = value>>uint(k)&1 == 1
		}
		finals[w] = append(finals[w], finalRec{f.ID, FinalFragment{
			Root:       f.Root,
			ParentPort: port,
			Carriers:   f.BFS[:width:width],
			Value:      value,
		}})
		return nil
	})
	if err != nil {
		return err
	}
	nf := 0
	for _, recs := range finals {
		nf += len(recs)
	}
	b.frags = make([]FinalFragment, nf)
	for _, recs := range finals {
		for _, r := range recs {
			b.frags[r.fi] = r.frag
		}
	}
	return nil
}
