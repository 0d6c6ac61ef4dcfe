package mstadvice

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"mstadvice/internal/bitstring"
	"mstadvice/internal/core"
	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
	"mstadvice/internal/hier"
	"mstadvice/internal/schemes/oneround"
	"mstadvice/internal/store"
)

// adviceGoldens pins the advice bytes of every scheme built on the
// Borůvka decomposition, one FNV-64a fingerprint per (family, encoder)
// at n = 150 with random weights: the Theorem 3 advice, the Theorem 2
// oneround advice, mst-hier at levels 1–3, and the store encoding of
// hier.BuildTiers' tiers at levels 1–3. The values were recorded before
// the decomposition API was collapsed to Decompose plus one fragment
// visitor and must never be edited to make a refactor pass: a mismatch
// means the advice bytes moved.
var adviceGoldens = map[string][6]uint64{
	"path":        {0x12eb8a7d88243d14, 0xd7121e2caea0c90b, 0xa23cb2882562ce28, 0x2a40c938c040dbf7, 0x95d96417fd04c47b, 0x43bdf269fa20ad1c},
	"ring":        {0x8a829fe51fd417d7, 0x1f6e8d6d5e839454, 0x8f82ef8461f91cd9, 0xb17925ab490a2912, 0xa477edde167c7f81, 0x0d311e43a0553600},
	"grid":        {0xe467dbeea748eaaf, 0xee62d75c4f820e80, 0xc1201ae075b35528, 0xd3d3031dc77c375b, 0x1319a99a6283c5fe, 0xea7c6ddd3525971e},
	"tree":        {0x59cfcf49af89bdc5, 0xdb44fe958926c063, 0x423ab2876c7eccb1, 0xfe5eb26a5c294d8b, 0x3a5314ad9d445f73, 0x2d30c16b6ce35cff},
	"random":      {0x9f810aa3e4825c19, 0x96341aba8c821504, 0x4f74b8e9095d26dd, 0xe368431eaf5edbf1, 0x4ca76ea26d87cf5a, 0x2e69a85689871b7e},
	"expander":    {0xe4fd8f29ef1c285a, 0x15e4e97db4c6e3d8, 0x3d9dcc16fad04215, 0xa454d0a203359a18, 0xd72cfd507435f1b7, 0x0ca0d702524917e1},
	"star":        {0xfc8d851893144c37, 0x10b14901f320988a, 0x5c3ee997783968d1, 0x5c3ee997783968d1, 0x5c3ee997783968d1, 0x4734e3fe4bc31c7d},
	"caterpillar": {0xabf4ba399211229b, 0xd1d6a0d32c779f78, 0x79fb743a59b366b9, 0x7e1dfccfa8a8f9d7, 0x9fc6c85d23f8fae8, 0xdfffc68d5d3cc266},
	"binarytree":  {0x1f51727ba8220a9f, 0x3c2ace6c74af97e0, 0x193551242ab70b27, 0xfad4c8c97f5b8a71, 0x3f5950b1e284615c, 0x5727cf341902f178},
	"complete":    {0x032238e4206827fb, 0x0ebb6f5b15e4ac56, 0x74b8b3e56719fa0a, 0xf35bedccd5188857, 0x062c16938b3fbdfe, 0xb4f3edc40d1ed0a5},
	"wheel":       {0xbd26c3766ca1b024, 0x06a82c430ddb2b23, 0x4692e69dd8450f7b, 0xb46727b66c07a07d, 0x797846d26f87eb91, 0xfabd8c89bd66cfc1},
	"lollipop":    {0x959353484ed4ba68, 0x76a6e4316fbed274, 0xbf004df2961c8182, 0x4dd7f5508a832adc, 0x306fb7da01f747ce, 0x7844a99e5f2e43ba},
}

// adviceEncoders names the columns of adviceGoldens.
var adviceEncoders = [6]string{"core", "oneround", "mst-hier-l1", "mst-hier-l2", "mst-hier-l3", "tiers"}

// fingerprintAdvice hashes a per-node assignment: each node's length
// and bits, in node order (nil strings hash as empty).
func fingerprintAdvice(adv []*bitstring.BitString) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, b := range adv {
		s := ""
		if b != nil {
			s = b.String()
		}
		binary.LittleEndian.PutUint32(buf[:], uint32(len(s)))
		h.Write(buf[:])
		h.Write([]byte(s))
	}
	return h.Sum64()
}

// adviceFingerprints computes one row of adviceGoldens.
func adviceFingerprints(t *testing.T, g *graph.Graph) [6]uint64 {
	t.Helper()
	var out [6]uint64
	coreAdv, err := core.BuildAdvice(g, 0, core.DefaultCap)
	if err != nil {
		t.Fatal(err)
	}
	out[0] = fingerprintAdvice(coreAdv)
	one, err := oneround.Scheme{}.Advise(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	out[1] = fingerprintAdvice(one)
	for l := 1; l <= 3; l++ {
		adv, err := hier.Scheme{Level: l}.Advise(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		out[1+l] = fingerprintAdvice(adv)
	}
	tiers, err := hier.BuildTiers(g, 0, hier.HierOptions{Levels: []int{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := store.Encode(&store.Snapshot{Problem: "mst", Graph: g, Root: 0, Cap: core.DefaultCap, Tiers: tiers})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(blob)
	out[5] = h.Sum64()
	return out
}

// TestAdviceFingerprints holds every decomposition-based encoder to its
// pinned bytes across all twelve generator families.
func TestAdviceFingerprints(t *testing.T) {
	for gi, fam := range gen.Names() {
		g, err := gen.BuildSeeded(fam, 150, uint64(900+gi), gen.SeededOptions{Weights: gen.WeightsRandom})
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		want, ok := adviceGoldens[fam]
		got := adviceFingerprints(t, g)
		if !ok {
			t.Errorf("%s: no golden pinned; got %#x", fam, got)
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s/%s: fingerprint %#x != pinned golden %#x (advice bytes moved)", fam, adviceEncoders[i], got[i], want[i])
			}
		}
	}
}
