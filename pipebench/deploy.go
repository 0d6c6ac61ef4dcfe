package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mstadvice/internal/bitstring"
	"mstadvice/internal/obs"
	"mstadvice/internal/replica"
	"mstadvice/internal/service"
)

// deployment is the serving tier one workload runs against: a primary
// service with a durable epoch log and a wire endpoint, and a follower
// that tails the log into its own service, durable log and endpoint.
type deployment struct {
	dir               string
	primary, follower *service.Service
	plog, flog        *replica.Log
	srvP, srvF        *replica.Server
	rep               *replica.Replica
	refs              *epochBook // advice of every epoch the primary published
	visible           *epochBook // when each epoch became visible on the follower
	stopTail          context.CancelFunc
	tailDone          chan struct{}
}

func deploy(dir string) (*deployment, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &deployment{dir: dir, refs: newEpochBook(true), visible: newEpochBook(false)}
	var err error
	if d.plog, err = replica.OpenLog(filepath.Join(dir, "primary.log")); err != nil {
		return nil, err
	}
	d.primary = service.New()
	// The reference hook runs before the log's, so an epoch's advice is
	// on record before any follower can serve it.
	d.primary.OnPublish(d.refs.record)
	d.plog.Attach(d.primary)
	d.srvP = replica.NewServer(d.primary, d.plog, replica.ServerOptions{})
	if err := d.srvP.Listen("127.0.0.1:0"); err != nil {
		d.plog.Close()
		return nil, err
	}
	if d.flog, err = replica.OpenLog(filepath.Join(dir, "follower.log")); err != nil {
		d.srvP.Close()
		d.plog.Close()
		return nil, err
	}
	d.follower = service.New()
	d.follower.OnPublish(d.visible.record)
	d.rep = replica.NewReplica(d.follower, d.srvP.Addr(), replica.ReplicaOptions{
		ReconnectBase: 5 * time.Millisecond, ReconnectCap: 50 * time.Millisecond,
		Log: d.flog, Head: d.plog.Len,
	})
	ctx, cancel := context.WithCancel(context.Background())
	d.stopTail, d.tailDone = cancel, make(chan struct{})
	go func() { defer close(d.tailDone); d.rep.Run(ctx) }()
	d.srvF = replica.NewServer(d.follower, nil, replica.ServerOptions{})
	if err := d.srvF.Listen("127.0.0.1:0"); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// close stops the follower, both endpoints and both logs, and removes
// the deployment's files.
func (d *deployment) close() {
	d.stopTail()
	<-d.tailDone
	d.srvF.Close()
	d.srvP.Close()
	d.flog.Close()
	d.plog.Close()
	os.RemoveAll(d.dir)
}

// client returns a failover client over both endpoints: one closed-loop
// caller holds one connection to each.
func (d *deployment) client(seed uint64) (*replica.Client, error) {
	return replica.NewClient([]string{d.srvP.Addr(), d.srvF.Addr()}, replica.ClientOptions{
		Timeout: 2 * time.Second, Attempts: 8, BackoffBase: 500 * time.Microsecond, Seed: seed,
	})
}

// epochBook records, per graph and epoch, the time of a publication
// and, in a reference book, its advice, from a service's OnPublish hook.
type epochBook struct {
	keepAdvice bool
	mu         sync.Mutex
	advice     map[string]map[uint64][]*bitstring.BitString
	at         map[string]map[uint64]time.Time
	notify     chan struct{} // closed and replaced on every record
}

// newEpochBook returns an empty book. Only the primary's book keeps
// advice: holding every follower epoch's decoded strings as well would
// grow the heap the collector scans by an epoch's worth per update.
func newEpochBook(keepAdvice bool) *epochBook {
	return &epochBook{
		keepAdvice: keepAdvice,
		advice:     map[string]map[uint64][]*bitstring.BitString{},
		at:         map[string]map[uint64]time.Time{},
		notify:     make(chan struct{}),
	}
}

func (b *epochBook) record(id string, ep *service.Epoch) {
	now := time.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.advice[id] == nil {
		b.advice[id] = map[uint64][]*bitstring.BitString{}
		b.at[id] = map[uint64]time.Time{}
	}
	if b.keepAdvice {
		b.advice[id][ep.Seq] = ep.Advice
	}
	b.at[id][ep.Seq] = now
	close(b.notify)
	b.notify = make(chan struct{})
}

// wait blocks until epoch seq of id is recorded and returns when it was.
func (b *epochBook) wait(id string, seq uint64, timeout time.Duration) (time.Time, error) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		b.mu.Lock()
		t, ok := b.at[id][seq]
		ch := b.notify
		b.mu.Unlock()
		if ok {
			return t, nil
		}
		select {
		case <-ch:
		case <-deadline.C:
			return time.Time{}, fmt.Errorf("epoch %d of %q not published within %v", seq, id, timeout)
		}
	}
}

// bits returns node's advice in epoch seq of id. A service makes an
// epoch readable just before its publish hooks run, so a reader can
// hold an answer from an epoch not yet recorded; wait for it briefly.
func (b *epochBook) bits(id string, seq uint64, node int) *bitstring.BitString {
	if _, err := b.wait(id, seq, 2*time.Second); err != nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	adv := b.advice[id][seq]
	if node < 0 || node >= len(adv) {
		return nil
	}
	return adv[node]
}

// readLoop is one closed-loop reader: it asks the client for the advice
// of uniformly random nodes until the deadline and checks each answer
// against the advice of the epoch it names. It returns the latency of
// every read in microseconds, timed from start.
func readLoop(cli *replica.Client, refs *epochBook, id string, n int, rng *rand.Rand,
	start, until time.Time, g *gate, tr *tracer, parent int) *series {
	lat := &series{}
	ctx := context.Background()
	for req := int64(0); time.Now().Before(until); req++ {
		node := rng.IntN(n)
		sp := tr.begin("replica.client_advice", parent, req)
		t0 := time.Now()
		ans, err := cli.Advice(ctx, id, node)
		d := time.Since(t0)
		tr.end(sp)
		lat.add(t0.Sub(start).Seconds(), float64(d.Nanoseconds())/1e3)
		if err != nil {
			g.fail("read of node %d: %v", node, err)
			continue
		}
		want := refs.bits(id, ans.Epoch, node)
		g.check(ans.Node == node && want != nil && ans.Bits.Equal(want),
			"read of node %d at epoch %d: got %v, published %v", node, ans.Epoch, ans.Bits, want)
	}
	return lat
}

// inProcessAdviceNS times the service's in-process Advice on the node
// sequence rng draws, in batches, and returns the median ns per call.
// Every answer is checked, after its batch is timed, against the advice
// of the epoch it names.
func inProcessAdviceNS(svc *service.Service, refs *epochBook, id string, n int, rng *rand.Rand,
	budget time.Duration, g *gate, tr *tracer) float64 {
	const batch = 256
	sp := tr.begin("bench.inprocess", -1, 0)
	defer tr.end(sp)
	var perCall []float64
	nodes := make([]int, batch)
	replies := make([]service.AdviceReply, batch)
	errs := make([]error, batch)
	until := time.Now().Add(budget)
	for req := int64(0); time.Now().Before(until); req++ {
		for i := range nodes {
			nodes[i] = rng.IntN(n)
		}
		inner := tr.begin("service.advice", sp, req)
		t0 := time.Now()
		for i, node := range nodes {
			replies[i], errs[i] = svc.Advice(id, node)
		}
		d := time.Since(t0)
		tr.end(inner)
		perCall = append(perCall, float64(d.Nanoseconds())/batch)
		for i, r := range replies {
			if errs[i] != nil {
				g.fail("in-process advice of node %d: %v", nodes[i], errs[i])
				continue
			}
			want := refs.bits(id, r.Epoch, nodes[i])
			g.check(r.Node == nodes[i] && want != nil && r.Bits == want.String(),
				"in-process advice of node %d at epoch %d: got %s, published %v", nodes[i], r.Epoch, r.Bits, want)
		}
	}
	return median(perCall)
}

// wireCounts reads the wire path's per-read costs from the endpoints'
// and the client's metric registries: reply bytes per answered read and
// client attempts per answer.
func wireCounts(d *deployment, cli *replica.Client, answers int64) (replyBytes, attempts float64) {
	var frames, bytes uint64
	for _, reg := range []*obs.Registry{d.srvP.Metrics(), d.srvF.Metrics()} {
		f, _ := reg.CounterValue("replica_server_frames_total", "op", "advice", "result", "ok")
		b, _ := reg.CounterValue("replica_server_reply_bytes_total", "op", "advice")
		frames += f
		bytes += b
	}
	var tries uint64
	for _, ep := range []string{d.srvP.Addr(), d.srvF.Addr()} {
		for _, outcome := range []string{"ok", "stale", "degraded", "not_found", "timeout", "net_error", "bad"} {
			v, _ := cli.Metrics().CounterValue("replica_client_attempts_total", "endpoint", ep, "outcome", outcome)
			tries += v
		}
	}
	return float64(bytes) / float64(max(frames, 1)), float64(tries) / float64(max(answers, 1))
}

// setReads reports a closed-loop read phase as the workload's frequent
// operation: op_us is the median read, op_tail_us p95. The tail is gated at p95: a read takes ~20 µs, so any time
// the hypervisor deschedules a vCPU lands in p99, which moved by a fifth
// between runs that differed only in the neighbours' load. The rate and
// p99 are printed as figures.
func setReads(rep *report, lat *series, window time.Duration) {
	w := window.Seconds()
	p50, p95 := lat.perPart(w, pct(0.5)), lat.perPart(w, pct(0.95))
	rep.set("op_us", p50)
	rep.set("op_tail_us", p95)
	rep.figure("read_qps", "1/s", lat.perPart(w, rate))
	rep.figure("read_p50_us", "us", p50)
	rep.figure("read_p95_us", "us", p95)
	rep.figure("read_p99_us", "us", lat.perPart(w, pct(0.99)))
	rep.note("reads: %d samples over %.1f s, each figure the median over %d equal parts", len(lat.v), w, windowParts)
}

// traceReads reports a read phase run once untraced and once traced:
// the tracing overhead on the median read, the wire path's counters,
// and the in-process Advice call on the same node sequence as a share
// of the wire read it sits inside.
// answers is the number of reads the deployment's counters have seen.
func traceReads(cfg config, rep *report, d *deployment, cli *replica.Client, id string, n int,
	untraced, traced *series, answers int64, window time.Duration, tr *tracer) {
	p50 := median(untraced.v)
	rep.set("trace.overhead_share", (median(traced.v)-p50)/p50)
	rep.figure("replica.read_p99_us", "us", traced.perPart(window.Seconds(), pct(0.99)))
	replyBytes, attempts := wireCounts(d, cli, answers)
	rep.set("replica.reply_bytes_per_read", replyBytes)
	rep.set("replica.attempts_per_answer", attempts)
	ns := inProcessAdviceNS(d.primary, d.refs, id, n, rand.New(rand.NewPCG(cfg.seed, 1)), time.Second, &rep.gate, tr)
	rep.figure("service.advice_ns_p50", "ns", ns)
	rep.set("service.advice_read_share", ns/(p50*1e3))
}

// logBytesPerEpoch is what the primary's epoch log wrote per record
// since the given counter value and record count.
func logBytesPerEpoch(d *deployment, bytesBefore uint64, recsBefore int) float64 {
	bytes, _ := d.plog.Metrics().CounterValue("replica_log_bytes_total")
	return float64(bytes-bytesBefore) / float64(max(d.plog.Len()-recsBefore, 1))
}
