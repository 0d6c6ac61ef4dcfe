package gen

import (
	"fmt"
	"math/bits"

	"mstadvice/internal/par"
)

// This file holds the randomness behind the generators: every random
// quantity is a pointwise function of (seed, purpose, index), so the
// whole build runs on the worker pool with byte-identical output for
// any worker count.
//
// Three primitives carry the construction (DESIGN.md §2.12):
//
//   - counter-mode SplitMix64 substreams: draw i of the stream keyed
//     (seed, purpose) is finalize(key + (i+1)·golden) — any worker can
//     evaluate any draw with no shared state, and each stream is a
//     bijection of the counter, so draws never collide within a stream;
//   - Feistel cycle-walking bijections over [0, N): pointwise random
//     permutations (with a pointwise inverse) for ID relabelling,
//     weight permutations, port shuffling, and distinct-pair sampling;
//   - sort-based assembly (gen.go): ports are ranks in a par.SortU64
//     pass over packed (node, sequence) half-edge keys, and the CSR is
//     scattered by graph.FromEdgeList — disjoint writes everywhere.
//
// The output is pinned by goldens (seeded_test.go).

// splitmixGolden is the SplitMix64 increment; mix is its finalizer, a
// bijective avalanche (same constants as internal/sim's latency model).
const splitmixGolden = 0x9E3779B97F4A7C15

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Stream purposes: each independent random quantity of a build draws
// from its own substream, so adding a purpose never perturbs another.
const (
	purposeIDs    = 1
	purposePorts  = 2
	purposeWeight = 3
	purposeTree   = 4
	purposePairs  = 5
	purposeCycle  = 6
	purposeAttach = 7
)

// streamKey derives the substream key for (seed, purpose).
func streamKey(seed uint64, purpose uint64) uint64 {
	return mix(seed ^ mix(purpose*splitmixGolden))
}

// draw returns draw i of the substream with the given key: SplitMix64 in
// counter mode, pointwise-evaluable from any worker.
func draw(key uint64, i uint64) uint64 {
	return mix(key + (i+1)*splitmixGolden)
}

// drawMod maps draw i into [0, n). The modulo bias is < n/2⁶⁴ — orders
// of magnitude below the statistical tolerances the generator tests
// check — and, unlike rejection sampling, keeps the draw pointwise.
func drawMod(key uint64, i uint64, n int) int {
	return int(draw(key, i) % uint64(n))
}

// bijection is a pseudorandom permutation of [0, n) built as a 4-round
// Feistel network over the smallest even-bit-width domain covering n,
// with cycle-walking to stay inside [0, n): out-of-range images are
// re-encrypted until they land in range, which preserves bijectivity.
// The domain is < 4n, so a walk takes < 4 steps in expectation. Both
// directions are pointwise, which is what lets the port scatter invert
// the shuffle without materialising it.
type bijection struct {
	n     uint64
	half  uint // bits per Feistel half
	mask  uint64
	round [4]uint64
}

func newBijection(n int, key uint64) bijection {
	if n < 1 {
		panic(fmt.Sprintf("gen: bijection over [0, %d)", n))
	}
	width := bits.Len64(uint64(n - 1))
	if width < 2 {
		width = 2
	}
	half := uint((width + 1) / 2)
	b := bijection{n: uint64(n), half: half, mask: 1<<half - 1}
	for r := range b.round {
		b.round[r] = draw(key, uint64(r))
	}
	return b
}

func (b bijection) encryptOnce(x uint64) uint64 {
	l, r := x>>b.half, x&b.mask
	for k := 0; k < 4; k++ {
		l, r = r, l^(mix(r+b.round[k])&b.mask)
	}
	return l<<b.half | r
}

func (b bijection) decryptOnce(x uint64) uint64 {
	l, r := x>>b.half, x&b.mask
	for k := 3; k >= 0; k-- {
		l, r = r^(mix(l+b.round[k])&b.mask), l
	}
	return l<<b.half | r
}

// apply returns the image of x under the permutation.
func (b bijection) apply(x int) int {
	v := uint64(x)
	for {
		v = b.encryptOnce(v)
		if v < b.n {
			return int(v)
		}
	}
}

// invert returns the preimage of x under the permutation.
func (b bijection) invert(x int) int {
	v := uint64(x)
	for {
		v = b.decryptOnce(v)
		if v < b.n {
			return int(v)
		}
	}
}

// pairAt unranks pair index i of K_n in row order: row u holds n-1-u
// pairs (u, u+1..n-1), so pairs before row u total u·(n-1) − u(u−1)/2;
// binary search finds the largest u whose prefix is ≤ i. O(log n),
// pointwise.
func pairAt(n, i int) seqEdge {
	lo, hi := 0, n-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if mid*(n-1)-mid*(mid-1)/2 <= i {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	u := lo
	return seqEdge{u, u + 1 + (i - (u*(n-1) - u*(u-1)/2))}
}

// randomConnectedEdges is the edge list behind RandomConnected: a
// random attachment tree over a seeded node permutation, plus extra
// edges sampled without replacement from the non-tree pairs.
//
// Distinctness is free: the extras walk a Feistel bijection over the
// n(n-1)/2 pair space in sequence order, skipping pairs that are tree
// edges. A window of needed+(n-1) images always contains enough — the
// bijection can hit each of the n-1 tree pairs at most once — so the
// selection is a single deterministic prefix-sum pass, no rejection
// loop, no hash set.
func randomConnectedEdges(n, m int, seed uint64, workers int) (edgeList, error) {
	maxM := n * (n - 1) / 2
	if m < n-1 {
		m = n - 1
	}
	if m > maxM {
		m = maxM
	}
	if n == 1 {
		return edgeList{1, 0, func(int) seqEdge { panic("no edges") }}, nil
	}
	perm := newBijection(n, streamKey(seed, purposeAttach))
	tkey := streamKey(seed, purposeTree)
	treeAt := func(i int) seqEdge {
		u := perm.apply(drawMod(tkey, uint64(i), i+1))
		v := perm.apply(i + 1)
		if u > v {
			u, v = v, u
		}
		return seqEdge{u, v}
	}
	needed := m - (n - 1)
	var extras []seqEdge
	if needed > 0 {
		// Sorted tree-pair keys for membership tests during the walk.
		treeKeys := make([]uint64, n-1)
		par.Ranges(workers, n-1, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				e := treeAt(i)
				treeKeys[i] = uint64(e.u)<<32 | uint64(uint32(e.v))
			}
		})
		par.SortU64(workers, treeKeys)
		pairPerm := newBijection(maxM, streamKey(seed, purposePairs))
		window := needed + (n - 1)
		if window > maxM {
			window = maxM
		}
		// One parallel pass over the window computes every candidate pair
		// (each bijection image evaluated exactly once, stored packed) and
		// counts survivors per chunk; a chunked prefix-sum scatter then
		// compacts the kept pairs in sequence order. Chunks are indexed by
		// position, not worker, so the result is schedule-independent.
		// Endpoints fit 31 bits, so all-ones cannot collide with a pair key.
		const dropped = ^uint64(0)
		pairs := make([]uint64, window)
		const chunk = 8192
		nChunks := (window + chunk - 1) / chunk
		counts := make([]int32, nChunks+1)
		par.Ranges(workers, nChunks, func(_, clo, chi int) {
			for c := clo; c < chi; c++ {
				lo, hi := c*chunk, (c+1)*chunk
				if hi > window {
					hi = window
				}
				kept := int32(0)
				for i := lo; i < hi; i++ {
					e := pairAt(n, pairPerm.apply(i))
					key := uint64(e.u)<<32 | uint64(uint32(e.v))
					if sortedContains(treeKeys, key) {
						pairs[i] = dropped
					} else {
						pairs[i] = key
						kept++
					}
				}
				counts[c+1] = kept
			}
		})
		for c := 0; c < nChunks; c++ {
			counts[c+1] += counts[c]
		}
		if int(counts[nChunks]) < needed {
			return edgeList{}, fmt.Errorf("gen: random family window exhausted (%d/%d extras)", counts[nChunks], needed)
		}
		all := make([]seqEdge, counts[nChunks])
		par.Ranges(workers, nChunks, func(_, clo, chi int) {
			for c := clo; c < chi; c++ {
				lo, hi := c*chunk, (c+1)*chunk
				if hi > window {
					hi = window
				}
				k := counts[c]
				for i := lo; i < hi; i++ {
					if pairs[i] != dropped {
						all[k] = seqEdge{int(pairs[i] >> 32), int(uint32(pairs[i]))}
						k++
					}
				}
			}
		})
		extras = all[:needed]
	}
	return edgeList{n, m, func(i int) seqEdge {
		if i < n-1 {
			return treeAt(i)
		}
		return extras[i-(n-1)]
	}}, nil
}

func sortedContains(keys []uint64, key uint64) bool {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(keys) && keys[lo] == key
}

// expanderCycles is the number of Hamiltonian cycles in the "expander"
// family: a near-6-regular, low-diameter graph.
const expanderCycles = 3

// expanderEdges is the union of expanderCycles seeded Hamiltonian
// cycles with duplicates dropped, first occurrence (in cycle-major
// sequence order) winning.
func expanderEdges(n int, seed uint64, workers int) (edgeList, error) {
	total, candAt := expanderCandidates(n, seed)
	order := firstOccurrences(n, total, candAt, workers)
	return edgeList{n, len(order), func(i int) seqEdge { return candAt(int(order[i])) }}, nil
}

// expanderCandidates enumerates the expander's candidate edges: the n
// consecutive pairs of each seeded cycle, in (cycle, position) order.
func expanderCandidates(n int, seed uint64) (int, func(s int) seqEdge) {
	cycles := make([]bijection, expanderCycles)
	for c := range cycles {
		cycles[c] = newBijection(n, streamKey(seed, purposeCycle+uint64(c)*16))
	}
	return expanderCycles * n, func(s int) seqEdge {
		c, i := s/n, s%n
		u, v := cycles[c].apply(i), cycles[c].apply((i+1)%n)
		if u > v {
			u, v = v, u
		}
		return seqEdge{u, v}
	}
}

// firstOccurrences returns, in increasing order, every sequence number
// s < total whose pair cand(s) (endpoints < n) no smaller s produced. A
// par.SortU64 pass over (pair, sequence) keys groups duplicates and a
// second pass restores sequence order of the survivors. The packed key
// spends 2·⌈log₂ n⌉ bits on the pair and ⌈log₂ total⌉ on the sequence,
// which bounds this path to n ≤ 2²⁰ for the expander — far above every
// sweep; beyond it firstOccurrencesMap produces the identical result.
func firstOccurrences(n, total int, cand func(s int) seqEdge, workers int) []int32 {
	nodeBits := uint(bits.Len64(uint64(n - 1)))
	seqBits := uint(bits.Len64(uint64(total - 1)))
	if 2*nodeBits+seqBits > 64 {
		return firstOccurrencesMap(total, cand)
	}
	workers = par.Workers(workers)
	keys := make([]uint64, total)
	par.Ranges(workers, total, func(_, lo, hi int) {
		for s := lo; s < hi; s++ {
			e := cand(s)
			keys[s] = (uint64(e.u)<<nodeBits|uint64(e.v))<<seqBits | uint64(s)
		}
	})
	par.SortU64(workers, keys)
	// Equal pairs are adjacent, ordered by sequence: keep group heads.
	heads := make([]int32, total)
	par.Ranges(workers, total, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			if i == 0 || keys[i]>>seqBits != keys[i-1]>>seqBits {
				heads[i] = 1
			}
		}
	})
	seqMask := uint64(1)<<seqBits - 1
	surv := make([]uint64, 0, total)
	for i, h := range heads {
		if h == 1 {
			surv = append(surv, keys[i]&seqMask)
		}
	}
	par.SortU64(workers, surv)
	order := make([]int32, len(surv))
	for i, s := range surv {
		order[i] = int32(s)
	}
	return order
}

// firstOccurrencesMap is firstOccurrences by one sequential pass over a
// set of seen pairs, for keys too wide to pack into 64 bits.
func firstOccurrencesMap(total int, cand func(s int) seqEdge) []int32 {
	var order []int32
	seen := make(map[uint64]struct{}, total)
	for s := 0; s < total; s++ {
		e := cand(s)
		key := uint64(e.u)<<32 | uint64(e.v)
		if _, dup := seen[key]; !dup {
			seen[key] = struct{}{}
			order = append(order, int32(s))
		}
	}
	return order
}
