// Command pipebench is the repository's end-to-end benchmark: it drives
// seeded graphs through the advice pipeline — generator, oracle
// (Borůvka decomposition and Theorem 3 encode), snapshot store,
// replicated serving, and decoding on the round and asynchronous
// engines — and checks every answer it gets back.
//
//	pipebench -workload publish-large|decode-mixed|serve-churn -seed N -seconds S -trace 0|1
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it
// runs the measured phase once untraced and once with spans around
// every call into a layer, and prints the per-layer metrics, each
// layer's self time, the wall share no span covers and the tracing
// overhead. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": x, "unit": "u"}}}
//
// A wrong answer (a read that differs from the advice of the epoch it
// names, a decode that is not the MST, a graph whose fingerprint
// depends on the worker count) makes "correct" false and the exit
// status 1. NOTES.md explains the workloads and their sizes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// config sizes one run. defaultConfig holds the benchmark's sizes;
// tests shrink them.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	workdir  string // scratch files and traces go under it
	workers  int    // oracle, generator and engine pool size

	largeN int // publish-large graph size

	decodeN int // decode-mixed graph size per family
	asyncN  int // decode-mixed asynchronous decode size

	churnN    int     // serve-churn graph size
	writeRate float64 // serve-churn writer rate, updates per second
	fullEvery int     // every fullEvery-th update changes the MST
}

const (
	setupReps     = 5 // set-ups per end-to-end run; setup_s is their median
	publishRounds = 3 // publish-large rounds per end-to-end run, each a set-up, a publish and reads
)

func defaultConfig(workload string) config {
	return config{
		workload:  workload,
		workers:   runtime.NumCPU(),
		largeN:    1_000_000,
		decodeN:   10_000,
		asyncN:    1024,
		churnN:    10_000,
		writeRate: 20,
		fullEvery: 20,
	}
}

var workloads = map[string]func(config, *tracer) (*report, error){
	"publish-large": runPublishLarge,
	"decode-mixed":  runDecodeMixed,
	"serve-churn":   runServeChurn,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// decl names a metric and its unit. BENCHMARK.json declares the same
// two lists; the tests hold them equal.
type decl struct{ name, unit string }

// endToEnd is what every untraced run reports, whatever the workload:
// work_s is the workload's unit of work, op_us and op_tail_us the
// typical and the tail latency of its frequent operation (NOTES.md
// says which each is).
var endToEnd = []decl{
	{"setup_s", "s"},
	{"work_s", "s"},
	{"op_us", "us"},
	{"op_tail_us", "us"},
	{"advice_bits_max", "bits"},
	{"snapshot_bytes_per_node", "B/node"},
	{"peak_rss_mb", "MB"},
	{"ok_ratio", "ratio"},
}

// perLayer is what every traced run reports. The counters of a layer a
// workload does not enter (the decoder in publish-large, the wire path
// in decode-mixed) read 0; every time is taken in every workload.
var perLayer = []decl{
	{"gen.build_s", "s"},
	{"core.oracle_s", "s"},
	{"core.oracle_allocs", "count"},
	{"core.oracle_alloc_mb", "MB"},
	{"core.oracle_speedup_measured", "x"},
	{"store.encode_s", "s"},
	{"store.snapshot_mb", "MB"},
	{"service.advice_read_share", "ratio"},
	{"service.update_incremental_ratio", "ratio"},
	{"service.update_reencoded_mean", "count"},
	{"replica.reply_bytes_per_read", "B"},
	{"replica.attempts_per_answer", "ratio"},
	{"replica.log_bytes_per_epoch", "B"},
	{"sim.rounds", "rounds"},
	{"sim.messages", "count"},
	{"sim.msg_bits_total", "bits"},
	{"sim.msg_bits_mean", "bits"},
	{"sim.msg_bits_max", "bits"},
	{"sim.allocs_per_round", "count"},
	{"sim.alloc_mb", "MB"},
	{"sim.async_steps", "count"},
	{"synch.control_messages", "count"},
	{"sim.async_allocs_per_node", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"go.heap_peak_mb", "MB"},
	{"self.gen_share", "ratio"},
	{"self.core_share", "ratio"},
	{"self.store_share", "ratio"},
	{"self.service_share", "ratio"},
	{"self.replica_share", "ratio"},
	{"self.sim_share", "ratio"},
	{"self.advice_share", "ratio"},
	{"trace.uncovered_share", "ratio"},
	{"trace.overhead_share", "ratio"},
}

// units maps every declared metric to its unit.
var units = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

// result is the benchmark's machine-readable verdict.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// gate is the correctness gate every workload reports into. A failed
// operation (an error or a refusal) counts against the run; a wrong
// answer also fails it.
type gate struct {
	attempted, failed atomic.Int64

	mu         sync.Mutex
	wrong      int64
	firstWrong string
}

func (g *gate) ok() { g.attempted.Add(1) }

// fail counts an operation that returned an error instead of an answer.
func (g *gate) fail(format string, args ...any) {
	g.attempted.Add(1)
	g.failed.Add(1)
	fmt.Fprintf(os.Stderr, "pipebench: failed: "+format+"\n", args...)
}

// wrongAnswer counts an operation whose answer is wrong.
func (g *gate) wrongAnswer(format string, args ...any) {
	g.attempted.Add(1)
	g.failed.Add(1)
	msg := fmt.Sprintf(format, args...)
	g.mu.Lock()
	defer g.mu.Unlock()
	g.wrong++
	if g.firstWrong == "" {
		g.firstWrong = msg
	}
}

// check counts one operation as correct when cond holds and as a wrong
// answer otherwise.
func (g *gate) check(cond bool, format string, args ...any) {
	if cond {
		g.ok()
	} else {
		g.wrongAnswer(format, args...)
	}
}

func (g *gate) wrongCount() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.wrong
}

// report collects one run's metrics, the human-readable lines printed
// before the JSON verdict, and the correctness gate.
type report struct {
	gate    gate
	metrics map[string]metric
	lines   []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// set records a declared metric; an undeclared name is a bug.
func (r *report) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("pipebench: undeclared metric " + name)
	}
	r.metrics[name] = metric{v, unit}
}

// figure prints a named figure beside the metrics without making it one:
// the workload-specific quantities, by the names NOTES.md uses.
func (r *report) figure(name, unit string, v float64) {
	r.note("figure %-28s %14.6g %s", name, v, unit)
}

func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// finish adds the metrics every workload reports and returns the verdict.
// A traced run's counters of layers the workload did not enter read 0.
func (r *report) finish(cfg config) result {
	att, failed := r.gate.attempted.Load(), r.gate.failed.Load()
	if !cfg.trace {
		r.set("peak_rss_mb", peakRSSMB())
		r.set("ok_ratio", float64(att-failed)/float64(max(att, 1)))
	} else {
		for _, d := range perLayer {
			if _, ok := r.metrics[d.name]; !ok {
				r.set(d.name, 0)
			}
		}
	}
	return result{Correct: r.gate.wrongCount() == 0 && att > 0, Attempted: att, Failed: failed, Metrics: r.metrics}
}

// missing names the first end-to-end metric an untraced run left unset.
func (r *report) missing() string {
	for _, d := range endToEnd {
		if _, ok := r.metrics[d.name]; !ok {
			return d.name
		}
	}
	return ""
}

func (r *report) print(w io.Writer, res result) error {
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	if r.gate.firstWrong != "" {
		fmt.Fprintf(w, "wrong answers: %d (first: %s)\n", r.gate.wrongCount(), r.gate.firstWrong)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}

// run executes one workload. Traced runs also write their spans to
// <workdir>/traces.
func run(cfg config) (*report, result, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return nil, result{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	steal := stealShare()
	var gc *gcMeter
	if tr != nil {
		gc = startGC()
	}
	rep, err := fn(cfg, tr)
	if err != nil {
		if gc != nil {
			gc.finish()
		}
		return nil, result{}, err
	}
	rep.note("cpu steal during the run: %.1f%% of machine CPU time", 100*steal())
	if tr != nil {
		cycles, pause, peak := gc.finish()
		rep.set("go.gc_cycles", cycles)
		rep.set("go.gc_pause_ms", pause)
		rep.set("go.heap_peak_mb", peak)
		if err := addAttribution(rep, tr); err != nil {
			return nil, result{}, err
		}
		dir := filepath.Join(cfg.workdir, "traces")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, result{}, err
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			return nil, result{}, fmt.Errorf("writing trace: %w", err)
		}
		rep.note("trace: %d spans written to %s", len(tr.spans), path)
	}
	res := rep.finish(cfg)
	if m := rep.missing(); !cfg.trace && m != "" && res.Correct {
		return nil, result{}, fmt.Errorf("workload reported no %s", m)
	}
	return rep, res, nil
}

// addAttribution reports each layer's self time as a share of the
// traced phases' wall time, and the share no layer span covers.
func addAttribution(rep *report, tr *tracer) error {
	a, err := tr.attribute()
	if err != nil {
		return err
	}
	for layer, s := range a.selfS {
		if layer != "bench" {
			rep.set("self."+layer+"_share", s/a.wallS)
			rep.figure("self."+layer+"_s", "s", s)
		}
	}
	rep.set("trace.uncovered_share", a.uncoveredShare)
	return nil
}

func main() {
	workload := flag.String("workload", "", "publish-large, decode-mixed or serve-churn")
	seed := flag.Uint64("seed", 1, "workload seed: every input is generated from it")
	secs := flag.Float64("seconds", 20, "length of the measured window")
	traceFlag := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for scratch files and traces")
	flag.Parse()

	cfg := defaultConfig(*workload)
	cfg.seed = *seed
	cfg.seconds = time.Duration(*secs * float64(time.Second))
	cfg.trace = *traceFlag == 1
	cfg.workdir = *workdir
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "pipebench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "pipebench: %v\n", err)
		os.Exit(1)
	}
	rep, res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pipebench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if err := rep.print(os.Stdout, res); err != nil {
		fmt.Fprintf(os.Stderr, "pipebench: %v\n", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}
