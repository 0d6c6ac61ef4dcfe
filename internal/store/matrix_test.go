package store

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mstadvice/internal/core"
	"mstadvice/internal/graph"
)

// tieredSnapshot extends the shared legacy instance with one coarse
// tier, exercising every field of the version-3 tier section. The tier
// is hand-built — the codec does not care how tiers are produced, only
// that the invariants hold (ascending original-edge hints inside the
// main edge range, root inside the coarse graph, advice per coarse
// node).
func tieredSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	s := legacySnapshot(t)
	cg := loadRecords(t, "tier-4x5.records")
	adv, err := core.BuildAdvice(cg, 1, 12)
	if err != nil {
		t.Fatal(err)
	}
	s.Tiers = []Tier{{
		Level:    2,
		Graph:    cg,
		Root:     1,
		OrigEdge: []graph.EdgeID{3, 10, 11, 40, 79},
		Advice:   adv,
	}}
	return s
}

// TestVersionMatrix pins every format the decoder accepts against bytes
// on disk: one committed golden blob per version, all decoding to the
// identical common in-memory state. The version-3 golden additionally
// carries a tier, pinning the tier section's wire layout. Regenerate
// all three with -update only when intentionally changing the golden
// instance.
func TestVersionMatrix(t *testing.T) {
	flat := legacySnapshot(t)
	tiered := tieredSnapshot(t)
	cases := []struct {
		name    string
		path    string
		version int
		want    *Snapshot
		encode  func(t *testing.T) []byte
	}{
		{"v1", "v1-golden.mstadv", 0, flat, func(t *testing.T) []byte {
			return encodeV1(t, flat)
		}},
		{"v2", "v2-golden.mstadv", 2, flat, func(t *testing.T) []byte {
			s := *flat
			s.Version = 2
			blob, err := Encode(&s)
			if err != nil {
				t.Fatal(err)
			}
			return blob
		}},
		{"v3", "v3-golden.mstadv", 3, tiered, func(t *testing.T) []byte {
			blob, err := Encode(tiered)
			if err != nil {
				t.Fatal(err)
			}
			return blob
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join("testdata", tc.path)
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, tc.encode(t), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			snap, err := Load(path)
			if err != nil {
				t.Fatalf("%v (regenerate with go test -run TestVersionMatrix -update ./internal/store)", err)
			}
			assertLegacyEqual(t, snap, tc.want, "mst")
			if snap.Version != tc.version {
				t.Fatalf("Version = %d, want %d", snap.Version, tc.version)
			}
			assertTiersEqual(t, snap.Tiers, tc.want.Tiers)
		})
	}
}

// TestTierRoundTrip pins the tier section in memory: encoding and
// decoding a tiered snapshot preserves every tier field exactly, and
// the re-encode is byte-identical (the fuzz fixed-point, pinned here
// on a real instance).
func TestTierRoundTrip(t *testing.T) {
	want := tieredSnapshot(t)
	blob, err := Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	if blob[7] != 3 {
		t.Fatalf("tiered snapshot encoded as version %d, want 3", blob[7])
	}
	snap, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	assertLegacyEqual(t, snap, want, "mst")
	assertTiersEqual(t, snap.Tiers, want.Tiers)
	again, err := Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, blob) {
		t.Fatal("re-encode of a decoded tiered snapshot is not byte-identical")
	}
}

// TestEncodeV2RejectsTiers pins the version guard: tiers cannot be
// forced into the flat version-2 layout.
func TestEncodeV2RejectsTiers(t *testing.T) {
	s := tieredSnapshot(t)
	s.Version = 2
	if _, err := Encode(s); err == nil {
		t.Fatal("Encode accepted tiers under forced version 2")
	}
}

func assertTiersEqual(t *testing.T, got, want []Tier) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d tiers, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := &got[i], &want[i]
		if g.Level != w.Level || g.Root != w.Root {
			t.Fatalf("tier %d level/root = %d/%d, want %d/%d", i, g.Level, g.Root, w.Level, w.Root)
		}
		if g.Graph.N() != w.Graph.N() || !reflect.DeepEqual(g.Graph.Edges(), w.Graph.Edges()) {
			t.Fatalf("tier %d coarse graph differs", i)
		}
		if !reflect.DeepEqual(g.Graph.IDs(), w.Graph.IDs()) {
			t.Fatalf("tier %d coarse IDs differ", i)
		}
		if !reflect.DeepEqual(g.OrigEdge, w.OrigEdge) {
			t.Fatalf("tier %d original-edge hints differ", i)
		}
		if len(g.Advice) != len(w.Advice) {
			t.Fatalf("tier %d has %d advice strings, want %d", i, len(g.Advice), len(w.Advice))
		}
		for u := range w.Advice {
			if !g.Advice[u].Equal(w.Advice[u]) {
				t.Fatalf("tier %d node %d advice differs", i, u)
			}
		}
	}
}
