package advice_test

import (
	"testing"

	"mstadvice/internal/advice"
	"mstadvice/internal/bitstring"
	"mstadvice/internal/core"
	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
	"mstadvice/internal/hier"
	"mstadvice/internal/mst"
	_ "mstadvice/internal/problem/mstp" // routes oneround, core and mst-hier-l%d to the MST verifier
	"mstadvice/internal/schemes/oneround"
	"mstadvice/internal/sim"
)

// fuzzRoundSlack is the number of rounds past a decoder's bound a run on
// arbitrary advice may take before the engine aborts it.
const fuzzRoundSlack = 2

// fuzzScheme is one decoder under fuzz with its round bound on n nodes.
type fuzzScheme struct {
	scheme advice.Scheme
	bound  func(n int) int
}

var fuzzSchemes = []fuzzScheme{
	{oneround.Scheme{}, func(int) int { return 1 }},
	{hier.Scheme{Level: 1}, hier.Rounds},
	{core.Scheme{}, func(n int) int { exact, _ := core.RoundBound(n); return exact }},
}

// fixedAdvice runs a scheme's decoder on a fixed assignment in place of
// its oracle's; the name routes it to the scheme's problem.
type fixedAdvice struct {
	advice.Scheme
	adv []*bitstring.BitString
}

func (s fixedAdvice) Advise(*graph.Graph, graph.NodeID) ([]*bitstring.BitString, error) {
	return s.adv, nil
}

// fuzzGraph is the fixed 14-node instance every fuzzed advice runs on.
func fuzzGraph() *graph.Graph {
	return gen.RandomConnected(14, 30, 5, gen.SeededOptions{Weights: gen.WeightsRandom})
}

// decodeFuzzAdvice splits data into a scheme selector and one advice
// string per node: each string is a length byte (mod 40 bits) followed
// by its bits, little-endian within bytes; missing bytes read as zero.
func decodeFuzzAdvice(data []byte, n int) (int, []*bitstring.BitString) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	which := int(next()) % len(fuzzSchemes)
	adv := make([]*bitstring.BitString, n)
	for u := range adv {
		bits := int(next()) % 40
		adv[u] = bitstring.New(bits)
		var cur byte
		for k := 0; k < bits; k++ {
			if k%8 == 0 {
				cur = next()
			}
			adv[u].AppendBit(cur>>uint(k%8)&1 == 1)
		}
	}
	return which, adv
}

// encodeFuzzAdvice is the inverse of decodeFuzzAdvice for seeding the
// corpus with honest assignments.
func encodeFuzzAdvice(which int, adv []*bitstring.BitString) []byte {
	out := []byte{byte(which)}
	for _, a := range adv {
		out = append(out, byte(a.Len()))
		for k := 0; k < a.Len(); k += 8 {
			var cur byte
			for j := k; j < k+8 && j < a.Len(); j++ {
				if a.Bit(j) {
					cur |= 1 << uint(j-k)
				}
			}
			out = append(out, cur)
		}
	}
	return out
}

// FuzzSchemeAdvice feeds arbitrary per-node advice to the oneround,
// mst-hier-l1 and Theorem 3 decoders through advice.Run. Contract: the
// run ends within the decoder's round bound plus fuzzRoundSlack, either
// with an error or with an output the verifier judges; a node panic is
// contained by the engine as an error; and a verified result is the MST
// rooted at the node the result names as root. Advice forged for another
// root legitimately decodes to that root's tree, so the designated root
// is required only of the honest assignment, which must verify at it.
func FuzzSchemeAdvice(f *testing.F) {
	g := fuzzGraph()
	const root = graph.NodeID(3)
	honest := make([][]*bitstring.BitString, len(fuzzSchemes))
	f.Add([]byte{})
	for which, fs := range fuzzSchemes {
		for _, r := range []graph.NodeID{root, 9} {
			adv, err := fs.scheme.Advise(g, r)
			if err != nil {
				f.Fatal(err)
			}
			if r == root {
				honest[which] = adv
			}
			seed := encodeFuzzAdvice(which, adv)
			if w, back := decodeFuzzAdvice(seed, g.N()); w != which || !equalAdvice(back, adv) {
				f.Fatalf("%s: honest advice does not survive the fuzz encoding", fs.scheme.Name())
			}
			f.Add(seed)
			flipped := append([]byte(nil), seed...)
			flipped[len(flipped)/2] ^= 0x15
			f.Add(flipped)
			f.Add(seed[:len(seed)/3])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		which, adv := decodeFuzzAdvice(data, g.N())
		fs := fuzzSchemes[which]
		limit := fs.bound(g.N()) + fuzzRoundSlack
		res, err := advice.Run(fixedAdvice{fs.scheme, adv}, g, root, sim.Options{Workers: 1, MaxRounds: limit})
		if equalAdvice(honest[which], adv) && (err != nil || !res.Verified || res.Root != root) {
			t.Fatalf("%s: honest advice for root %d did not verify there (err %v)", fs.scheme.Name(), root, err)
		}
		if err != nil {
			return
		}
		if res.Rounds > limit {
			t.Fatalf("%s: %d rounds past the bound %d", fs.scheme.Name(), res.Rounds, limit)
		}
		if !res.Verified {
			return
		}
		if res.Root < 0 || res.ParentPorts[res.Root] != -1 {
			t.Fatalf("%s: verified with root %d, which does not output root", fs.scheme.Name(), res.Root)
		}
		if err := mst.VerifyRooted(g, res.ParentPorts, res.Root); err != nil {
			t.Fatalf("%s: verified output is not the MST rooted at %d: %v", fs.scheme.Name(), res.Root, err)
		}
	})
}

func equalAdvice(a, b []*bitstring.BitString) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}
