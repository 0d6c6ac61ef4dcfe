package store

import (
	"encoding/binary"
	"flag"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mstadvice/internal/core"
	"mstadvice/internal/graph"
)

var updateGolden = flag.Bool("update", false, "rewrite the committed legacy golden blob")

// encodeV1 writes the pre-platform version-1 layout: a bare cap varint
// where version 2 carries the problem and payload sections. It exists
// only in the tests — Encode always writes the current version — and
// reuses Encode's output by splicing the header, so the two encoders
// cannot drift on the shared sections.
func encodeV1(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	flat := *s
	flat.Version = 2 // v1 = v2 minus the problem/payload sections; no tier section
	flat.Tiers = nil
	v2, err := Encode(&flat)
	if err != nil {
		t.Fatal(err)
	}
	d := &decoder{buf: v2, pos: len(magic)}
	if _, err := d.uvarint("n"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.uvarint("m"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.uvarint("root"); err != nil {
		t.Fatal(err)
	}
	headerEnd := d.pos // problem + payload sections start here
	if _, err := d.problemName(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.problemPayload(); err != nil {
		t.Fatal(err)
	}
	blob := append([]byte(nil), magicV1[:]...)
	blob = append(blob, v2[len(magic):headerEnd]...)
	blob = binary.AppendUvarint(blob, uint64(s.Cap))
	blob = append(blob, v2[d.pos:len(v2)-4]...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(blob))
	return append(blob, crc[:]...)
}

// loadRecords reads a graph frozen as plain records under testdata —
// "n m", the n node IDs, then one "u v pu pv w" line per edge, after
// any '#' comment lines — and builds it with graph.FromEdgeList, not
// the codec, so the golden tests compare the codec against an
// independent source of truth.
func loadRecords(t *testing.T, name string) *graph.Graph {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	var fields []int64
	for _, line := range strings.Split(string(blob), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		for _, f := range strings.Fields(line) {
			v, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			fields = append(fields, v)
		}
	}
	if len(fields) < 2 {
		t.Fatalf("%s: missing the n m header", name)
	}
	n, m := int(fields[0]), int(fields[1])
	if len(fields) != 2+n+5*m {
		t.Fatalf("%s: %d numbers, want %d for n=%d m=%d", name, len(fields), 2+n+5*m, n, m)
	}
	ids := fields[2 : 2+n]
	edges := make([]graph.Edge, m)
	for i := range edges {
		r := fields[2+n+5*i:]
		edges[i] = graph.Edge{U: graph.NodeID(r[0]), V: graph.NodeID(r[1]), PU: int(r[2]), PV: int(r[3]), W: graph.Weight(r[4])}
	}
	g, err := graph.FromEdgeList(n, ids, edges, 0)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return g
}

// legacySnapshot is the instance behind the committed golden blobs.
func legacySnapshot(t *testing.T) *Snapshot {
	t.Helper()
	g := loadRecords(t, "legacy-32x80.records")
	adv, err := core.BuildAdvice(g, 5, 12)
	if err != nil {
		t.Fatal(err)
	}
	return &Snapshot{Graph: g, Root: 5, Cap: 12, Advice: adv}
}

// TestLegacyDecode pins backward compatibility of the version bump: a
// version-1 blob decodes to the identical snapshot mapped to the "mst"
// problem, and re-encoding it (now version 2) round-trips.
func TestLegacyDecode(t *testing.T) {
	want := legacySnapshot(t)
	blob := encodeV1(t, want)
	if blob[7] != 1 {
		t.Fatalf("legacy encoder wrote version %d", blob[7])
	}
	snap, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	assertLegacyEqual(t, snap, want, "mst")

	again, err := Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	if again[7] != magic[7] {
		t.Fatalf("re-encode wrote version %d, want %d", again[7], magic[7])
	}
	snap2, err := Decode(again)
	if err != nil {
		t.Fatal(err)
	}
	assertLegacyEqual(t, snap2, want, "mst")
}

// TestLegacyGolden decodes the committed pre-bump artifact, so the
// compatibility guarantee is pinned against bytes on disk, not against
// the in-test v1 encoder. Regenerate with -update only when intentionally
// changing the golden instance.
func TestLegacyGolden(t *testing.T) {
	path := filepath.Join("testdata", "v1-golden.mstadv")
	want := legacySnapshot(t)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, encodeV1(t, want), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := Load(path)
	if err != nil {
		t.Fatalf("%v (regenerate with go test -run TestLegacyGolden -update ./internal/store)", err)
	}
	assertLegacyEqual(t, snap, want, "mst")
	mapped, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	assertLegacyEqual(t, mapped, want, "mst")
}

func assertLegacyEqual(t *testing.T, got, want *Snapshot, problem string) {
	t.Helper()
	if got.Problem != problem {
		t.Fatalf("Problem = %q, want %q", got.Problem, problem)
	}
	if got.Root != want.Root || got.Cap != want.Cap {
		t.Fatalf("Root/Cap = %d/%d, want %d/%d", got.Root, got.Cap, want.Root, want.Cap)
	}
	if got.Graph.N() != want.Graph.N() || got.Graph.M() != want.Graph.M() {
		t.Fatalf("graph %d/%d, want %d/%d", got.Graph.N(), got.Graph.M(), want.Graph.N(), want.Graph.M())
	}
	for u, e := range want.Graph.Edges() {
		if got.Graph.Edges()[u] != e {
			t.Fatalf("edge %d = %+v, want %+v", u, got.Graph.Edges()[u], e)
		}
	}
	if (got.Advice == nil) != (want.Advice == nil) {
		t.Fatalf("advice presence %v, want %v", got.Advice != nil, want.Advice != nil)
	}
	for u := range want.Advice {
		if !got.Advice[u].Equal(want.Advice[u]) {
			t.Fatalf("node %d advice differs", u)
		}
	}
}
