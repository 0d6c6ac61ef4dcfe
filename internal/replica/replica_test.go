package replica

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mstadvice/internal/bitstring"
	"mstadvice/internal/core"
	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
	"mstadvice/internal/hier"
	"mstadvice/internal/obs"
	"mstadvice/internal/service"
	"mstadvice/internal/store"
)

// makeSnapshot builds a random connected instance with its oracle run.
func makeSnapshot(t testing.TB, n, m int, seed int64) *store.Snapshot {
	t.Helper()
	g := gen.RandomConnected(n, m, uint64(seed), gen.SeededOptions{Weights: gen.WeightsDistinct})
	adviceBits, err := core.BuildAdvice(g, 0, core.DefaultCap)
	if err != nil {
		t.Fatal(err)
	}
	return &store.Snapshot{Graph: g, Root: 0, Cap: core.DefaultCap, Advice: adviceBits}
}

// bumpWeight publishes a new epoch by raising one edge weight to a
// fresh distinct value (weight updates never disconnect the graph).
func bumpWeight(t testing.TB, svc *service.Service, id string, e graph.EdgeID, w graph.Weight) {
	t.Helper()
	if _, err := svc.Update(context.Background(), id, graph.Batch{
		Weights: []graph.WeightUpdate{{Edge: e, W: w}},
	}); err != nil {
		t.Fatal(err)
	}
}

// waitApplied polls until the replica has applied n records.
func waitApplied(t testing.TB, r *Replica, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for r.Applied() < n {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at %d/%d records (last error: %s)", r.Applied(), n, r.LastErr())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// sameAdvice asserts two services serve byte-identical advice at the
// same epoch for every node of id.
func sameAdvice(t testing.TB, a, b *service.Service, id string, n int) {
	t.Helper()
	for u := 0; u < n; u++ {
		wantBits, wantEp, err := a.AdviceBits(id, u)
		if err != nil {
			t.Fatal(err)
		}
		gotBits, gotEp, err := b.AdviceBits(id, u)
		if err != nil {
			t.Fatal(err)
		}
		if gotEp != wantEp || !gotBits.Equal(wantBits) {
			t.Fatalf("%s node %d: replica serves %s@%d, primary %s@%d",
				id, u, gotBits, gotEp, wantBits, wantEp)
		}
	}
}

func TestPackBitsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 200, 1000} {
		s := bitstring.New(n)
		for i := 0; i < n; i++ {
			s.AppendBit(rng.Intn(2) == 1)
		}
		packed := packBits(s)
		if want := (n + 7) / 8; len(packed) != want {
			t.Fatalf("n=%d: packed %d bytes, want %d", n, len(packed), want)
		}
		back, err := unpackBits(packed, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !back.Equal(s) {
			t.Fatalf("n=%d: round trip %s != %s", n, back, s)
		}
	}
	if _, err := unpackBits([]byte{0xFF}, 3); err == nil {
		t.Fatal("set padding bits went undetected")
	}
	if _, err := unpackBits([]byte{0x01}, 16); err == nil {
		t.Fatal("short buffer went undetected")
	}
}

// TestReplicationRoundTrip is the tentpole's core contract: every epoch
// a primary publishes — registrations and updates, across multiple
// graphs — reaches a tailing replica in publication order and is served
// byte-identically at the same epoch number.
func TestReplicationRoundTrip(t *testing.T) {
	primary := service.New()
	log, err := OpenLog("")
	if err != nil {
		t.Fatal(err)
	}
	log.Attach(primary)

	snapA := makeSnapshot(t, 64, 192, 1)
	snapB := makeSnapshot(t, 48, 144, 2)
	if err := primary.Register("a", snapA); err != nil {
		t.Fatal(err)
	}
	if err := primary.Register("b", snapB); err != nil {
		t.Fatal(err)
	}
	bumpWeight(t, primary, "a", 0, 1_000_001)
	bumpWeight(t, primary, "b", 3, 1_000_003)
	bumpWeight(t, primary, "a", 5, 1_000_005)

	srv := NewServer(primary, log, ServerOptions{})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	follower := service.New()
	rep := NewReplica(follower, srv.Addr(), ReplicaOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); rep.Run(ctx) }()
	defer func() { cancel(); <-done }()

	waitApplied(t, rep, 5) // 2 registrations + 3 updates

	sameAdvice(t, primary, follower, "a", snapA.Graph.N())
	sameAdvice(t, primary, follower, "b", snapB.Graph.N())

	// A later epoch published while the replica tails arrives too.
	bumpWeight(t, primary, "a", 7, 1_000_007)
	waitApplied(t, rep, 6)
	sameAdvice(t, primary, follower, "a", snapA.Graph.N())
}

// TestPublishRefusesGaps pins the consistent-prefix guard: a record
// that does not extend the local history by exactly one epoch is
// refused, and the refusal does not disturb the entry.
func TestPublishRefusesGaps(t *testing.T) {
	primary := service.New()
	log, err := OpenLog("")
	if err != nil {
		t.Fatal(err)
	}
	log.Attach(primary)
	snap := makeSnapshot(t, 32, 96, 3)
	if err := primary.Register("g", snap); err != nil {
		t.Fatal(err)
	}
	bumpWeight(t, primary, "g", 1, 2_000_000)
	bumpWeight(t, primary, "g", 2, 2_000_002)

	follower := service.New()
	apply := func(i int) error {
		rec := log.At(i)
		s, err := store.Decode(rec.Blob)
		if err != nil {
			t.Fatal(err)
		}
		return follower.Publish(rec.ID, s, rec.Seq)
	}
	if err := apply(0); err != nil {
		t.Fatal(err)
	}
	if err := apply(2); err == nil {
		t.Fatal("gap (epoch 0 -> 2) accepted")
	}
	if err := apply(0); err == nil {
		t.Fatal("replayed epoch 0 over epoch 0 accepted")
	}
	if err := apply(1); err != nil {
		t.Fatalf("in-order epoch 1 refused: %v", err)
	}
	if err := apply(2); err != nil {
		t.Fatalf("in-order epoch 2 refused: %v", err)
	}
	sameAdvice(t, primary, follower, "g", snap.Graph.N())
}

// TestReplicaReconnectsAfterPrimaryRestart kills the primary's endpoint
// mid-stream and restarts it on the same log; the replica's capped
// backoff loop must reconnect and resume the tail exactly where it
// stopped, including epochs published while the endpoint was down.
func TestReplicaReconnectsAfterPrimaryRestart(t *testing.T) {
	primary := service.New()
	log, err := OpenLog("")
	if err != nil {
		t.Fatal(err)
	}
	log.Attach(primary)
	snap := makeSnapshot(t, 64, 192, 4)
	if err := primary.Register("g", snap); err != nil {
		t.Fatal(err)
	}

	srv := NewServer(primary, log, ServerOptions{})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	follower := service.New()
	rep := NewReplica(follower, addr, ReplicaOptions{ReconnectBase: 5 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); rep.Run(ctx) }()
	defer func() { cancel(); <-done }()
	waitApplied(t, rep, 1)

	// Crash: every connection dies. The service and its log survive —
	// epochs published during the outage must reach the replica later.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	bumpWeight(t, primary, "g", 0, 3_000_000)
	bumpWeight(t, primary, "g", 1, 3_000_001)

	// Restart on the same address (retry: the OS may briefly hold it).
	srv2 := NewServer(primary, log, ServerOptions{})
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := srv2.Listen(addr); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer srv2.Close()

	waitApplied(t, rep, 3)
	sameAdvice(t, primary, follower, "g", snap.Graph.N())
}

// TestDurableLogRestart pins the restart path: a replica (or primary)
// reopening its durable log replays the exact epoch history, and a torn
// tail — a crash mid-append — is truncated at the damaged record.
func TestDurableLogRestart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "epochs.log")
	primary := service.New()
	log, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	log.Attach(primary)
	snap := makeSnapshot(t, 48, 144, 5)
	if err := primary.Register("g", snap); err != nil {
		t.Fatal(err)
	}
	bumpWeight(t, primary, "g", 2, 4_000_000)
	if log.Len() != 2 {
		t.Fatalf("log holds %d records, want 2", log.Len())
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// Clean restart: both records replay into a fresh service.
	log2, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if log2.Len() != 2 {
		t.Fatalf("reopened log holds %d records, want 2", log2.Len())
	}
	restarted := service.New()
	if err := log2.Replay(restarted); err != nil {
		t.Fatal(err)
	}
	sameAdvice(t, primary, restarted, "g", snap.Graph.N())
	if err := log2.Close(); err != nil {
		t.Fatal(err)
	}

	// Torn tail: truncate the file a few bytes into the second record;
	// recovery keeps record one and the log accepts appends again.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var firstLen int
	{
		l3, err := OpenLog(path)
		if err != nil {
			t.Fatal(err)
		}
		rec := l3.At(0)
		firstLen = len(store.AppendRecord(nil, rec.appendPayload(nil)))
		l3.Close()
	}
	for _, cut := range []int{firstLen + 1, firstLen + 10, len(data) - 1} {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		torn, err := OpenLog(path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if torn.Len() != 1 {
			t.Fatalf("cut %d: recovered %d records, want 1", cut, torn.Len())
		}
		fresh := service.New()
		if err := torn.Replay(fresh); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if ep, err := fresh.Epoch("g"); err != nil || ep.Seq != 0 {
			t.Fatalf("cut %d: recovered epoch %v (%v), want 0", cut, ep, err)
		}
		// The truncated tail is gone from disk too: appending after
		// recovery yields a clean two-record log.
		if err := torn.Append(EpochRecord{ID: "g", Seq: 1, Blob: log.At(1).Blob}); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		torn.Close()
		again, err := OpenLog(path)
		if err != nil {
			t.Fatal(err)
		}
		if again.Len() != 2 {
			t.Fatalf("cut %d: log after recovery+append holds %d records, want 2", cut, again.Len())
		}
		again.Close()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestClientFailover pins the read path under a dying endpoint: with a
// primary and a caught-up replica, killing one endpoint mid-run must
// not produce a single wrong or stale answer.
func TestClientFailover(t *testing.T) {
	primary := service.New()
	log, err := OpenLog("")
	if err != nil {
		t.Fatal(err)
	}
	log.Attach(primary)
	snap := makeSnapshot(t, 64, 192, 6)
	if err := primary.Register("g", snap); err != nil {
		t.Fatal(err)
	}
	bumpWeight(t, primary, "g", 0, 5_000_000)

	srvP := NewServer(primary, log, ServerOptions{})
	if err := srvP.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srvP.Close()

	follower := service.New()
	rep := NewReplica(follower, srvP.Addr(), ReplicaOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); rep.Run(ctx) }()
	defer func() { cancel(); <-done }()
	waitApplied(t, rep, 2)

	srvR := NewServer(follower, nil, ServerOptions{})
	if err := srvR.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srvR.Close()

	cli, err := NewClient([]string{srvP.Addr(), srvR.Addr()}, ClientOptions{
		Timeout: 2 * time.Second, BackoffBase: time.Millisecond, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	check := func(u int) {
		t.Helper()
		ans, err := cli.Advice(context.Background(), "g", u)
		if err != nil {
			t.Fatal(err)
		}
		want, wantEp, err := primary.AdviceBits("g", u)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Epoch != wantEp || !ans.Bits.Equal(want) {
			t.Fatalf("node %d: client got %s@%d, primary serves %s@%d",
				u, ans.Bits, ans.Epoch, want, wantEp)
		}
	}
	n := snap.Graph.N()
	for u := 0; u < n/2; u++ {
		check(u)
	}
	// Kill the replica endpoint: reads fail over to the primary.
	if err := srvR.Close(); err != nil {
		t.Fatal(err)
	}
	for u := n / 2; u < n; u++ {
		check(u)
	}
	// Unknown graphs fail over too, then surface as not-found.
	if _, err := cli.Advice(context.Background(), "nope", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown graph: %v, want ErrNotFound", err)
	}
}

// TestClientRejectsStaleEpochs pins monotone reads: once the client has
// seen epoch e for a graph, a lagging endpoint's older answer is
// retried elsewhere, never returned.
func TestClientRejectsStaleEpochs(t *testing.T) {
	snap := makeSnapshot(t, 48, 144, 7)

	fresh := service.New()
	logF, _ := OpenLog("")
	logF.Attach(fresh)
	if err := fresh.Register("g", snap); err != nil {
		t.Fatal(err)
	}
	bumpWeight(t, fresh, "g", 1, 6_000_000)

	// The lagging endpoint holds only epoch 0 (the registration record).
	lagging := service.New()
	rec := logF.At(0)
	s0, err := store.Decode(rec.Blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := lagging.Publish(rec.ID, s0, rec.Seq); err != nil {
		t.Fatal(err)
	}

	srvFresh := NewServer(fresh, logF, ServerOptions{})
	if err := srvFresh.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srvFresh.Close()
	srvLag := NewServer(lagging, nil, ServerOptions{})
	if err := srvLag.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srvLag.Close()

	// Round-robin starts at the fresh endpoint, so the very first answer
	// pins epoch 1; every later read must stay there even though half
	// the attempts land on the lagging endpoint first.
	cli, err := NewClient([]string{srvFresh.Addr(), srvLag.Addr()}, ClientOptions{
		BackoffBase: time.Millisecond, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for u := 0; u < snap.Graph.N(); u++ {
		ans, err := cli.Advice(context.Background(), "g", u)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Epoch != 1 {
			t.Fatalf("node %d: answer at epoch %d, want the pinned epoch 1", u, ans.Epoch)
		}
	}
}

// TestClientDegradedFallback pins graceful degradation: when only a
// memory-pressured tier-only endpoint answers, Advice surfaces
// ErrDegraded and AdviceDegraded falls back to the coarse tier snapshot
// the endpoint still serves.
func TestClientDegradedFallback(t *testing.T) {
	snap := makeSnapshot(t, 200, 600, 8)
	tiers, err := hier.BuildTiers(snap.Graph, snap.Root, hier.HierOptions{Levels: []int{1, 2}, Cap: snap.Cap})
	if err != nil {
		t.Fatal(err)
	}
	snap.Tiers = tiers

	svc := service.New()
	if err := svc.Register("g", snap); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(svc, nil, ServerOptions{TierOnly: true})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rec := obs.NewRecorder(16)
	cli, err := NewClient([]string{srv.Addr()}, ClientOptions{BackoffBase: time.Millisecond, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if _, err := cli.Advice(context.Background(), "g", 0); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Advice on a tier-only endpoint: %v, want ErrDegraded", err)
	}
	ans, err := cli.AdviceDegraded(context.Background(), "g", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Degraded || ans.Tier == nil {
		t.Fatalf("degraded answer missing tier snapshot: %+v", ans)
	}
	// The degraded answer carries the terminal per-endpoint error list:
	// which endpoint refused full advice, and why.
	if len(ans.Diagnosis) != 1 || ans.Diagnosis[0].Endpoint != srv.Addr() {
		t.Fatalf("degraded diagnosis = %+v, want the one tier-only endpoint", ans.Diagnosis)
	}
	if !strings.Contains(ans.Diagnosis[0].Err, "tier") {
		t.Errorf("diagnosis error %q does not name the tier-only refusal", ans.Diagnosis[0].Err)
	}
	// And the flight recorder saw the fallback.
	degradedEvents := 0
	for _, ev := range rec.Events() {
		if ev.Kind == "degraded" {
			degradedEvents++
		}
	}
	if degradedEvents == 0 {
		t.Error("flight recorder captured no degraded event")
	}
	// Per-endpoint outcome counters classified the refusals.
	if v, ok := cli.Metrics().CounterValue("replica_client_attempts_total", "endpoint", srv.Addr(), "outcome", "degraded"); !ok || v == 0 {
		t.Errorf("replica_client_attempts_total{outcome=degraded} = %d, %v; want > 0", v, ok)
	}
	want, _, err := svc.Tier("g", 0)
	if err != nil {
		t.Fatal(err)
	}
	if ans.TierLevel != want.Level || ans.Tier.Graph.N() != want.Graph.N() {
		t.Fatalf("fallback tier level %d (n=%d), service's coarsest is level %d (n=%d)",
			ans.TierLevel, ans.Tier.Graph.N(), want.Level, want.Graph.N())
	}
	// The coarse snapshot is self-contained: its advice matches what the
	// service holds for the tier, bit for bit.
	for i, b := range want.Advice {
		if !ans.Tier.Advice[i].Equal(b) {
			t.Fatalf("coarse node %d: fallback advice %s, service %s", i, ans.Tier.Advice[i], b)
		}
	}
}
