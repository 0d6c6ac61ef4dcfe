package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mstadvice/internal/bitstring"
	"mstadvice/internal/core"
	"mstadvice/internal/graph"
	"mstadvice/internal/replica"
	"mstadvice/internal/store"
)

const largeID = "large"

// published is what one publish of the large graph produced.
type published struct {
	seconds   float64 // graph handed to the oracle → follower serves the epoch
	advice    []*bitstring.BitString
	snapBytes int64
	parts     map[string]float64 // wall time of each stage, by span name
}

// publish runs the pipeline once: oracle → store.Save (fsync) →
// store.OpenMapped → service.Register on the primary, whose epoch log
// appends and fsyncs the epoch → the follower tails it and serves it.
func publish(cfg config, g *graph.Graph, d *deployment, tr *tracer, req int64) (*published, error) {
	root := tr.begin("bench.publish", -1, req)
	defer tr.end(root)
	p := &published{parts: map[string]float64{}}
	stage := func(name string, fn func() error) error {
		t := time.Now()
		err := tr.do(name, root, req, fn)
		p.parts[name] = time.Since(t).Seconds()
		return err
	}
	path := filepath.Join(d.dir, largeID+".snap")
	var snap *store.Snapshot
	t0 := time.Now()
	if err := stage("core.oracle", func() (err error) {
		p.advice, err = oracle(g, cfg.workers, nil, -1, req)
		return err
	}); err != nil {
		return nil, err
	}
	if err := stage("store.save", func() error {
		return store.Save(path, &store.Snapshot{Graph: g, Root: 0, Cap: core.DefaultCap, Advice: p.advice})
	}); err != nil {
		return nil, err
	}
	if err := stage("store.open", func() (err error) {
		snap, err = store.OpenMapped(path)
		return err
	}); err != nil {
		return nil, err
	}
	if err := stage("service.register", func() error { return d.primary.Register(largeID, snap) }); err != nil {
		return nil, err
	}
	if err := stage("replica.ship", func() error {
		_, err := d.visible.wait(largeID, 0, 2*time.Minute)
		return err
	}); err != nil {
		return nil, err
	}
	p.seconds = time.Since(t0).Seconds()
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	p.snapBytes = fi.Size()
	return p, nil
}

// checkPublished gates one publish: advice within the paper's budget,
// and the primary and the follower serving exactly the oracle's bytes.
func checkPublished(rep *report, d *deployment, p *published) error {
	bits := maxBits(p.advice)
	rep.gate.check(bits <= core.DefaultCap+1, "advice string of %d bits exceeds %d", bits, core.DefaultCap+1)
	pe, err := d.primary.Epoch(largeID)
	if err != nil {
		return err
	}
	fe, err := d.follower.Epoch(largeID)
	if err != nil {
		return err
	}
	rep.gate.check(sameAdvice(pe.Advice, p.advice), "primary serves advice that differs from the oracle's")
	rep.gate.check(sameAdvice(fe.Advice, p.advice), "follower serves advice that differs from the oracle's")
	return nil
}

// largeSetup generates publish-large's graph from a collected heap and
// returns it with the time it took.
func largeSetup(cfg config, tr *tracer) (*graph.Graph, float64, error) {
	runtime.GC()
	t0 := time.Now()
	sp := tr.begin("bench.setup", -1, 0)
	g, err := genGraph("random", cfg.largeN, cfg.seed, cfg.workers, tr, sp)
	tr.end(sp)
	return g, time.Since(t0).Seconds(), err
}

// runPublishLarge runs publishRounds rounds; each generates the graph,
// publishes it to a fresh deployment, so every publish ships the
// snapshot to a follower that has never seen it, and reads from that
// deployment for its share of the window. A traced run makes two
// rounds, the first untraced, and reads in the second both untraced and
// traced: the differences are the tracing overhead.
func runPublishLarge(cfg config, tr *tracer) (*report, error) {
	rep := newReport()
	n := cfg.largeN
	rounds := publishRounds
	if tr != nil {
		rounds = 2
	}
	roundWindow := cfg.seconds / time.Duration(rounds)
	var setup, secs []float64
	var snapBytes int64
	var bits int
	reads := &series{}
	for r := range rounds {
		rtr := tr
		if r == 0 {
			rtr = nil
		}
		g, s, err := largeSetup(cfg, rtr)
		if err != nil {
			return nil, err
		}
		setup = append(setup, s)
		if r == 0 {
			if err := checkFingerprint(rep, "large", "random", n, cfg, g); err != nil {
				return nil, err
			}
		}
		if rtr != nil {
			rep.set("gen.build_s", tr.total("gen.build"))
			if err := traceOracle(cfg, g, rep, tr); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		lat, err := publishAndRead(cfg, g, r, roundWindow, rep, rtr, func(d *deployment, p *published, cli *replica.Client, lat *series) {
			secs = append(secs, p.seconds)
			snapBytes, bits = p.snapBytes, maxBits(p.advice)
			rep.note("publish %d: %.2f s: oracle %.2f, save %.2f, open %.2f, register %.2f, ship %.2f", r, p.seconds,
				p.parts["core.oracle"], p.parts["store.save"], p.parts["store.open"], p.parts["service.register"], p.parts["replica.ship"])
			if rtr != nil {
				for _, name := range []string{"core.oracle", "store.save", "store.open", "service.register", "replica.ship"} {
					rep.figure("publish."+name+"_s", "s", p.parts[name])
				}
				rep.set("replica.log_bytes_per_epoch", logBytesPerEpoch(d, 0, 0))
				// The overhead compares reads on the same deployment: the
				// read latency of two deployments differs by more than the
				// spans cost.
				rng := rand.New(rand.NewPCG(cfg.seed, 0))
				t0 := time.Now()
				untraced := readLoop(cli, d.refs, largeID, n, rng, t0, t0.Add(roundWindow), &rep.gate, nil, -1)
				traceReads(cfg, rep, d, cli, largeID, n, untraced, lat, int64(len(untraced.v)+len(lat.v)), roundWindow, tr)
			}
		})
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		reads.merge(lat, (time.Duration(r) * roundWindow).Seconds())
	}
	rep.note("set-ups: %v s; publishes: %v s", setup, secs)
	rep.figure("publish_s", "s", median(secs))
	if tr != nil {
		rep.figure("trace.overhead_publish_share", "ratio", (secs[1]-secs[0])/secs[0])
		return rep, nil
	}
	rep.set("setup_s", median(setup))
	rep.set("work_s", median(secs))
	rep.set("snapshot_bytes_per_node", float64(snapBytes)/float64(n))
	rep.set("advice_bits_max", float64(bits))
	setReads(rep, reads, time.Duration(rounds)*roundWindow)
	return rep, nil
}

// publishAndRead is one round's deployment: publish g to it, gate the
// publish, then read uniformly random nodes through one closed-loop
// client, with no writer, for the window. inspect sees the deployment
// before it closes.
func publishAndRead(cfg config, g *graph.Graph, round int, window time.Duration, rep *report, tr *tracer,
	inspect func(*deployment, *published, *replica.Client, *series)) (*series, error) {
	d, err := deploy(filepath.Join(cfg.workdir, fmt.Sprintf("publish-%d", round)))
	if err != nil {
		return nil, err
	}
	defer d.close()
	p, err := publish(cfg, g, d, tr, int64(round))
	if err != nil {
		return nil, err
	}
	if err := checkPublished(rep, d, p); err != nil {
		return nil, err
	}
	cli, err := d.client(cfg.seed)
	if err != nil {
		return nil, err
	}
	defer cli.Close()
	sp := tr.begin("bench.reads", -1, int64(round))
	rng := rand.New(rand.NewPCG(cfg.seed, uint64(round)+1))
	t0 := time.Now()
	lat := readLoop(cli, d.refs, largeID, g.N(), rng, t0, t0.Add(window), &rep.gate, tr, sp)
	tr.end(sp)
	inspect(d, p, cli, lat)
	return lat, nil
}
