package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"mstadvice/internal/advice"
	"mstadvice/internal/bitstring"
	"mstadvice/internal/core"
	"mstadvice/internal/graph"
	"mstadvice/internal/sim"
	"mstadvice/internal/synch"
)

// decodeFamilies differ in message volume at equal n: the path sends
// the most messages and the grid the fewest.
var decodeFamilies = []string{"random", "grid", "path", "expander"}

// decodeInput is one graph with its advice, computed during set-up.
type decodeInput struct {
	label, family string
	g             *graph.Graph
	adv           []*bitstring.BitString
}

func setupDecode(cfg config, tr *tracer) ([]decodeInput, error) {
	sp := tr.begin("bench.setup", -1, 0)
	defer tr.end(sp)
	var in []decodeInput
	add := func(label, family string, n int) error {
		g, err := genGraph(family, n, cfg.seed, cfg.workers, tr, sp)
		if err != nil {
			return err
		}
		adv, err := oracle(g, cfg.workers, tr, sp, int64(len(in)))
		if err != nil {
			return fmt.Errorf("oracle on %s: %w", label, err)
		}
		in = append(in, decodeInput{label, family, g, adv})
		return nil
	}
	for _, fam := range decodeFamilies {
		if err := add(fam, fam, cfg.decodeN); err != nil {
			return nil, err
		}
	}
	// The last input is the asynchronous decode's.
	return in, add("async-random", "random", cfg.asyncN)
}

// decoded is what one decode produced, with its wall times.
type decoded struct {
	res     *sim.Result
	runS    float64 // engine
	verifyS float64 // advice.VerifyOutput
	allocs  float64
	allocMB float64
}

// decode runs the core scheme's decoder on the round engine, or on the
// asynchronous engine under the α-synchronizer, and gates its output:
// exactly the MST rooted at node 0, within core.RoundBound rounds.
func decode(cfg config, in decodeInput, async bool, rep *report, tr *tracer, parent int, req int64) (*decoded, error) {
	out := &decoded{}
	var meter allocMeter
	if tr != nil {
		meter = startAllocs()
	}
	var err error
	t0 := time.Now()
	if async {
		sp := tr.begin("sim.async_run", parent, req)
		out.res, err = sim.NewNetwork(in.g).RunAsync(synch.Wrap(core.Scheme{}.NewNode), in.adv, sim.Options{
			Workers: cfg.workers, Scheduler: sim.FIFO{}, Latency: sim.UniformLatency{Seed: int64(cfg.seed), Min: 1, Max: 8},
		})
		tr.end(sp)
	} else {
		sp := tr.begin("sim.sync_run", parent, req)
		out.res, err = sim.NewNetwork(in.g).Run(core.Scheme{}.NewNode, in.adv, sim.Options{Workers: cfg.workers})
		tr.end(sp)
	}
	out.runS = time.Since(t0).Seconds()
	if tr != nil {
		out.allocs, out.allocMB = meter.stop()
	}
	if err != nil {
		return nil, fmt.Errorf("decode of %s: %w", in.label, err)
	}
	t1 := time.Now()
	tr.do("advice.verify", parent, req, func() error { checkDecode(rep, in, out.res, async); return nil })
	out.verifyS = time.Since(t1).Seconds()
	return out, nil
}

// checkDecode gates a decoder's output: exactly the MST rooted at node
// 0 (advice.VerifyOutput), within core.RoundBound rounds.
func checkDecode(rep *report, in decodeInput, res *sim.Result, async bool) {
	ok, root, err := advice.VerifyOutput(in.g, res.ParentPorts)
	rounds := res.Rounds
	if async {
		rounds = res.Pulses // simulated rounds of the synchronous decoder
	}
	bound, _ := core.RoundBound(in.g.N())
	rep.gate.check(ok && root == 0 && rounds <= bound,
		"decode of %s: verified=%v root=%d rounds=%d (bound %d): %v", in.label, ok, root, rounds, bound, err)
}

// sweepStats sums one sweep over the synchronous inputs plus the
// asynchronous decode.
type sweepStats struct {
	syncS, asyncS          float64 // decode + verify wall, end to end
	syncRunS, asyncRunS    float64
	verifyS                float64
	rounds, maxMsgBits     int
	roundsTotal            int
	messages, msgBits      int64
	syncAllocs, syncMB     float64
	asyncAllocs            float64
	asyncSteps, syncCtlMsg int64
	ops                    []float64 // µs, each input's decode with its verification
}

func sweep(cfg config, in []decodeInput, rep *report, tr *tracer, req int64) (*sweepStats, error) {
	sp := tr.begin("bench.sweep", -1, req)
	defer tr.end(sp)
	s := &sweepStats{}
	t0 := time.Now()
	for _, x := range in[:len(in)-1] {
		d, err := decode(cfg, x, false, rep, tr, sp, req)
		if err != nil {
			return nil, err
		}
		s.ops = append(s.ops, (d.runS+d.verifyS)*1e6)
		s.syncRunS += d.runS
		s.verifyS += d.verifyS
		s.syncAllocs += d.allocs
		s.syncMB += d.allocMB
		s.rounds = max(s.rounds, d.res.Rounds)
		s.roundsTotal += d.res.Rounds
		s.maxMsgBits = max(s.maxMsgBits, d.res.MaxMsgBits)
		s.messages += d.res.Messages
		s.msgBits += d.res.TotalBits
	}
	s.syncS = time.Since(t0).Seconds()
	t1 := time.Now()
	a := in[len(in)-1]
	d, err := decode(cfg, a, true, rep, tr, sp, req)
	if err != nil {
		return nil, err
	}
	s.asyncS = time.Since(t1).Seconds()
	s.ops = append(s.ops, (d.runS+d.verifyS)*1e6)
	s.asyncRunS = d.runS
	s.verifyS += d.verifyS
	s.asyncAllocs = d.allocs / float64(a.g.N())
	s.asyncSteps = int64(d.res.Steps)
	s.syncCtlMsg = d.res.SyncMessages
	s.maxMsgBits = max(s.maxMsgBits, d.res.MaxMsgBits)
	return s, nil
}

// decodeWindow is the measured window: sweeps until the deadline, at
// least one. A decode the engine does not finish — an error, a decoder
// that never terminates or sends on a missing port — produces no output
// that could pass advice.VerifyOutput, so it is a wrong answer: it
// fails the run and ends the window.
func decodeWindow(cfg config, in []decodeInput, rep *report, tr *tracer) []*sweepStats {
	var out []*sweepStats
	until := time.Now().Add(cfg.seconds)
	for req := int64(0); req == 0 || time.Now().Before(until); req++ {
		s, err := sweep(cfg, in, rep, tr, req)
		if err != nil {
			rep.gate.wrongAnswer("sweep %d: %v", req, err)
			break
		}
		out = append(out, s)
	}
	return out
}

func runDecodeMixed(cfg config, tr *tracer) (*report, error) {
	rep := newReport()
	reps := setupReps
	if tr != nil {
		reps = 1
	}
	var in []decodeInput
	var setup []float64
	for range reps {
		in = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if in, err = setupDecode(cfg, tr); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	bits := 0
	for _, x := range in {
		if err := checkFingerprint(rep, x.label, x.family, x.g.N(), cfg, x.g); err != nil {
			return nil, err
		}
		bits = max(bits, maxBits(x.adv))
	}
	rep.gate.check(bits <= core.DefaultCap+1, "advice string of %d bits exceeds %d", bits, core.DefaultCap+1)

	pick := func(ss []*sweepStats, f func(*sweepStats) float64) float64 {
		var xs []float64
		for _, s := range ss {
			xs = append(xs, f(s))
		}
		return median(xs)
	}
	// The decodes are fixed, CPU-bound work: any time beyond their own
	// is another guest holding a processor, and a stretch of CPU steal
	// slows every sweep it covers (the two workers meet at a barrier
	// every round, so one descheduled vCPU stalls both). Times are
	// therefore summarised by their lower quartile over the window's
	// sweeps, which holds while up to three quarters of them are slowed.
	fast := func(ss []*sweepStats, f func(*sweepStats) float64) float64 {
		var xs []float64
		for _, s := range ss {
			xs = append(xs, f(s))
		}
		return quantile(xs, 0.25)
	}
	// Each input's decodes cluster around their own time, so they are
	// summarised per input first; pooled, a few slowed sweeps would
	// shift the ranks across clusters.
	perInput := func(ss []*sweepStats) []float64 {
		var xs []float64
		for i := range ss[0].ops {
			xs = append(xs, fast(ss, func(s *sweepStats) float64 { return s.ops[i] }))
		}
		return xs
	}
	if tr == nil {
		// The snapshot size is not part of the set-up: decoding needs
		// only the advice in memory.
		bytes, nodes := 0, 0
		for _, x := range in {
			size, err := encodedSize(x.g, x.adv, nil, -1)
			if err != nil {
				return nil, err
			}
			bytes += size
			nodes += x.g.N()
		}
		ss := decodeWindow(cfg, in, rep, nil)
		if len(ss) == 0 {
			return rep, nil // the gate holds the failed decode
		}
		rep.set("setup_s", median(setup))
		rep.set("work_s", fast(ss, func(s *sweepStats) float64 { return s.syncS + s.asyncS }))
		rep.set("op_us", median(perInput(ss)))
		rep.set("op_tail_us", slices.Max(perInput(ss)))
		rep.set("advice_bits_max", float64(bits))
		rep.set("snapshot_bytes_per_node", float64(bytes)/float64(nodes))
		rep.figure("decode_s", "s", pick(ss, func(s *sweepStats) float64 { return s.syncS }))
		rep.figure("async_decode_s", "s", pick(ss, func(s *sweepStats) float64 { return s.asyncS }))
		rep.figure("decode_rounds", "rounds", pick(ss, func(s *sweepStats) float64 { return float64(s.rounds) }))
		rep.figure("msg_bits_mean", "bits", pick(ss, func(s *sweepStats) float64 { return float64(s.msgBits) / float64(s.messages) }))
		rep.figure("msg_bits_max", "bits", float64(ss[0].maxMsgBits))
		var sweepS []string
		for _, s := range ss {
			sweepS = append(sweepS, fmt.Sprintf("%.2f", s.syncS+s.asyncS))
		}
		rep.note("sweep times: %v s", sweepS)
		rep.note("sweeps: %d (each decodes %d graphs of n=%d on the round engine and one of n=%d on the asynchronous engine)",
			len(ss), len(in)-1, cfg.decodeN, cfg.asyncN)
		return rep, nil
	}
	rep.set("gen.build_s", tr.total("gen.build"))
	if err := traceOracle(cfg, in[0].g, rep, tr); err != nil {
		return nil, err
	}
	untraced := decodeWindow(cfg, in, rep, nil)
	traced := decodeWindow(cfg, in, rep, tr)
	if len(untraced) == 0 || len(traced) == 0 {
		return rep, nil
	}
	p50 := median(perInput(untraced))
	rep.set("trace.overhead_share", (median(perInput(traced))-p50)/p50)
	rep.set("sim.rounds", pick(traced, func(s *sweepStats) float64 { return float64(s.rounds) }))
	rep.set("sim.messages", pick(traced, func(s *sweepStats) float64 { return float64(s.messages) }))
	rep.set("sim.msg_bits_total", pick(traced, func(s *sweepStats) float64 { return float64(s.msgBits) }))
	rep.set("sim.msg_bits_mean", pick(traced, func(s *sweepStats) float64 { return float64(s.msgBits) / float64(s.messages) }))
	rep.set("sim.msg_bits_max", pick(traced, func(s *sweepStats) float64 { return float64(s.maxMsgBits) }))
	rep.set("sim.allocs_per_round", pick(traced, func(s *sweepStats) float64 {
		return s.syncAllocs / float64(max(s.roundsTotal, 1))
	}))
	rep.set("sim.alloc_mb", pick(traced, func(s *sweepStats) float64 { return s.syncMB }))
	rep.set("sim.async_steps", pick(traced, func(s *sweepStats) float64 { return float64(s.asyncSteps) }))
	rep.set("synch.control_messages", pick(traced, func(s *sweepStats) float64 { return float64(s.syncCtlMsg) }))
	rep.set("sim.async_allocs_per_node", pick(traced, func(s *sweepStats) float64 { return s.asyncAllocs }))
	rep.figure("sim.sync_run_s", "s", pick(traced, func(s *sweepStats) float64 { return s.syncRunS }))
	rep.figure("sim.async_run_s", "s", pick(traced, func(s *sweepStats) float64 { return s.asyncRunS }))
	rep.figure("advice.verify_s", "s", pick(traced, func(s *sweepStats) float64 { return s.verifyS }))
	return rep, nil
}
