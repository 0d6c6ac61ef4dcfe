package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"io"
	"math/rand/v2"
	"net"
	"os"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"mstadvice/internal/core"
	"mstadvice/internal/graph"
	"mstadvice/internal/replica"
	"mstadvice/internal/sim"
	"mstadvice/internal/store"
)

// tinyConfig shrinks a workload to a size that runs in about a second.
func tinyConfig(t *testing.T, workload string, trace bool) config {
	cfg := defaultConfig(workload)
	cfg.seed = 7
	cfg.seconds = 300 * time.Millisecond
	cfg.trace = trace
	cfg.workdir = t.TempDir()
	cfg.largeN = 3000
	cfg.decodeN = 400
	cfg.asyncN = 64
	cfg.churnN = 600
	cfg.writeRate = 50
	cfg.fullEvery = 4
	return cfg
}

// declared reads the metric lists of BENCHMARK.json.
func declared(t *testing.T) (e2e, perLayer []decl) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		e2e = append(e2e, decl{m.Name, m.Unit})
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, decl{m.Name, m.Unit})
	}
	return e2e, perLayer
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload at a tiny size, untraced and traced,
// and checks that the result holds exactly the declared metrics of its
// kind, each in its unit, that no end-to-end metric reads 0, and that
// every workload takes every per-layer time.
func TestSmoke(t *testing.T) {
	for _, w := range []string{"publish-large", "decode-mixed", "serve-churn"} {
		for _, trace := range []bool{false, true} {
			name := w
			if trace {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				rep, res, err := run(tinyConfig(t, w, trace))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d (first wrong: %s)", res.Correct, res.Attempted, res.Failed, rep.gate.firstWrong)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("missing %s", d.name)
					case m.Unit != d.unit:
						t.Errorf("%s in %q, declared %q", d.name, m.Unit, d.unit)
					case !trace && m.Value == 0:
						t.Errorf("end-to-end metric %s reads 0", d.name)
					case trace && (d.unit == "s" || d.unit == "ms") && m.Value == 0:
						t.Errorf("per-layer time %s was not taken", d.name)
					}
				}
			})
		}
	}
}

// TestDeclaredMetrics holds BENCHMARK.json's metric lists equal to the
// program's and checks every name and unit.
func TestDeclaredMetrics(t *testing.T) {
	e2e, layered := declared(t)
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program %v", e2e, endToEnd)
	}
	if !slices.Equal(layered, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, program %v", layered, perLayer)
	}
	seen := map[string]bool{}
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		if !metricName.MatchString(d.name) || d.unit == "" {
			t.Errorf("metric %q has a bad name or no unit (%q)", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %q is declared twice", d.name)
		}
		seen[d.name] = true
	}
}

// corruptingProxy forwards requests to upstream and flips one advice
// bit in every reply, re-framing it with a valid checksum: a server
// that answers wrongly, not a broken connection.
func corruptingProxy(t *testing.T, upstream string) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s, err := net.Dial("tcp", upstream)
			if err != nil {
				c.Close()
				return
			}
			wg.Add(2)
			go func() { defer wg.Done(); io.Copy(s, c); s.Close() }()
			go func() {
				defer wg.Done()
				defer c.Close()
				r := bufio.NewReader(s)
				for {
					payload, err := store.ReadRecord(r)
					if err != nil {
						return
					}
					// Reply layout: status, epoch, bit length, packed bits.
					if payload[0] == 0 {
						_, k1 := binary.Uvarint(payload[1:])
						bits, k2 := binary.Uvarint(payload[1+k1:])
						if bits > 0 {
							payload[1+k1+k2] ^= 1
						}
					}
					if _, err := c.Write(store.AppendRecord(nil, payload)); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

func TestCorruptedReplyFailsRun(t *testing.T) {
	cfg := tinyConfig(t, "publish-large", false)
	g, err := genGraph("random", 500, cfg.seed, cfg.workers, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := deploy(cfg.workdir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	if _, err := publish(cfg, g, d, nil, 0); err != nil {
		t.Fatal(err)
	}
	proxy := corruptingProxy(t, d.srvF.Addr())
	cli, err := replica.NewClient([]string{proxy}, replica.ClientOptions{Timeout: time.Second, Attempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	rep := newReport()
	now := time.Now()
	readLoop(cli, d.refs, largeID, g.N(), rand.New(rand.NewPCG(1, 1)), now, now.Add(200*time.Millisecond), &rep.gate, nil, -1)
	res := rep.finish(cfg)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted replies passed the gate: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if !strings.Contains(rep.gate.firstWrong, "read of node") {
		t.Fatalf("unexpected first failure %q", rep.gate.firstWrong)
	}
}

func TestWrongParentPortFailsRun(t *testing.T) {
	cfg := tinyConfig(t, "decode-mixed", false)
	g, err := genGraph("grid", 100, cfg.seed, cfg.workers, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := oracle(g, cfg.workers, nil, -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	in := decodeInput{"grid", "grid", g, adv}
	res, err := sim.NewNetwork(g).Run(core.Scheme{}.NewNode, adv, sim.Options{Workers: cfg.workers})
	if err != nil {
		t.Fatal(err)
	}
	good := newReport()
	checkDecode(good, in, res, false)
	if r := good.finish(cfg); !r.Correct || r.Failed != 0 {
		t.Fatalf("the untouched decode failed the gate: %+v", r)
	}
	// Point one non-root node at another neighbour.
	for u, p := range res.ParentPorts {
		if p >= 0 && g.Degree(graph.NodeID(u)) > 1 {
			res.ParentPorts[u] = (p + 1) % g.Degree(graph.NodeID(u))
			break
		}
	}
	bad := newReport()
	checkDecode(bad, in, res, false)
	if r := bad.finish(cfg); r.Correct || r.Failed != 1 {
		t.Fatalf("a wrong parent port passed the gate: %+v", r)
	}
}

func TestFailedDecodeFailsRun(t *testing.T) {
	cfg := tinyConfig(t, "decode-mixed", false)
	in, err := setupDecode(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Advice strings of the wrong length: the engine refuses the decode.
	in[1].adv = in[1].adv[:len(in[1].adv)-1]
	rep := newReport()
	ss := decodeWindow(cfg, in, rep, nil)
	res := rep.finish(cfg)
	if len(ss) != 0 || res.Correct || res.Failed != 1 {
		t.Fatalf("a decode the engine refused passed the gate: sweeps=%d %+v", len(ss), res)
	}
	if !strings.Contains(rep.gate.firstWrong, "advice strings") {
		t.Fatalf("unexpected first failure %q", rep.gate.firstWrong)
	}
}
