// Command perfbench is the repository's end-to-end benchmark. It boots
// an in-process time server over loopback HTTP, with a durable archive
// and a durable token spend ledger in a scratch directory, drives one
// named workload against it and prints the workload's metrics. The
// last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run is split in an untraced and a traced half, and the metrics are the
// per-layer ones measured from outside the program: spans around every
// public call the benchmark makes, a counting decorator around the
// pairing backend and the archive, and the program's own obs registry.
// Any failed correctness check makes it exit non-zero.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload seal-open --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"timedrelease/internal/params"
)

// workload is one named traffic mix. setup runs on a freshly booted env
// and ends once caches are warm; run measures d of traffic; finish runs
// the post-run oracle checks.
type workload interface {
	limit() time.Duration // goodput latency limit
	setup(ctx context.Context, e *env, rec *recorder) error
	run(ctx context.Context, d time.Duration, rec *recorder)
	finish(ctx context.Context, rec *recorder)
	spends() int64 // token spends the server acknowledged
	stop()
}

// workloads maps names to their parameter preset and constructor.
var workloads = map[string]struct {
	preset string
	make   func() workload
	// classes names latency classes a, b and c.
	classes [kinds]string
	// maxprocs, when set, caps GOMAXPROCS for the run.
	maxprocs int
}{
	"seal-open":       {params.PresetBLS12381, func() workload { return &sealOpen{} }, [kinds]string{"seal", "open", "open's verified update fetch (Client.Update)"}, 0},
	"seal-open-ss512": {"SS512", func() workload { return &sealOpen{} }, [kinds]string{"seal", "open", "open's verified update fetch (Client.Update)"}, 0},
	// One P: the batch verifier's speedup on two vCPUs depends on
	// whether they are hyperthread siblings, which made recoveries
	// take either ~650 or ~850 ms from run to run.
	"catchup": {params.PresetBLS12381, func() workload { return &catchup{} }, [kinds]string{"cold-start recovery of 96 epochs", "its HTTP exchanges", "its client-side work"}, 1},
	"serve":   {params.PresetBLS12381, func() workload { return &serve{} }, [kinds]string{"/v1/update fetch from due time", "gated /v1/catchup page from due time", "release, scheduled publish to verified receipt"}, 0},
}

type config struct {
	workload  string
	preset    string
	seed      int64
	seconds   time.Duration
	trace     bool
	procs     int // set-up parallelism and connections: at most GOMAXPROCS
	setupRuns int
	workDir   string
	faults    faults
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// failures holds the first few failure messages.
	failures []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	cfg := &config{setupRuns: 3}
	var secs float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&secs, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced per-layer run")
	flag.Parse()
	cfg.seconds = time.Duration(secs * float64(time.Second))
	cfg.trace = trace == 1
	cfg.workDir = filepath.Join(".bench_build", "work")

	res, err := runBenchmark(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// runBenchmark sets up, measures and checks one workload, writing the
// run record and a readable report to log.
func runBenchmark(cfg *config, log io.Writer) (*result, error) {
	spec, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 || cfg.setupRuns < 1 {
		return nil, errors.New("--seconds and the set-up count must be positive")
	}
	cfg.preset = spec.preset
	if spec.maxprocs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(min(spec.maxprocs, runtime.NumCPU())))
	}
	cfg.procs = min(2, runtime.GOMAXPROCS(0))
	if err := os.MkdirAll(cfg.workDir, 0o700); err != nil {
		return nil, err
	}
	printRecord(cfg, log)

	ctx := context.Background()
	total := newRecorder(0, nil)
	var e *env
	var w workload
	var setups []float64
	for i := 0; i < cfg.setupRuns; i++ {
		if e != nil {
			w.stop()
			e.close()
		}
		start := time.Now()
		var err error
		if e, err = boot(cfg); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		w = spec.make()
		warm := newRecorder(w.limit(), nil)
		if err := w.setup(ctx, e, warm); err != nil {
			w.stop()
			e.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		total.absorb(warm)
	}
	defer e.close()
	defer w.stop()
	if cfg.faults.corruptExpected {
		e.corruptKnown()
	}

	var phases []*phase
	if cfg.trace {
		// Untraced half first, then the traced half; the difference in
		// mean latency is the tracing overhead.
		phases = append(phases, measure(ctx, e, w, cfg.seconds/2, false))
		phases = append(phases, measure(ctx, e, w, cfg.seconds/2, true))
	} else {
		phases = append(phases, measure(ctx, e, w, cfg.seconds, false))
	}
	post := newRecorder(0, nil)
	w.finish(ctx, post)
	w.stop()
	for _, err := range e.audit(w.spends()) {
		post.check(err)
	}
	post.check(nil) // the audit itself
	for _, p := range phases {
		total.absorb(p.rec)
	}
	total.absorb(post)

	var ms map[string]metric
	if cfg.trace {
		ms = layerMetrics(cfg, e, phases[0], phases[1])
		writeSpans(cfg, phases[1].rec.tr)
	} else {
		ms = endToEndMetrics(median(setups), phases[0])
	}
	report(log, spec.classes, setups, phases[len(phases)-1], ms, total)
	return &result{
		Correct:   total.failed.Load() == 0,
		Attempted: total.attempts.Load(),
		Failed:    total.failed.Load(),
		Metrics:   ms,
		failures:  total.fails,
	}, nil
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// printRecord writes the host and run record: what a result needs to
// be compared with another.
func printRecord(cfg *config, log io.Writer) {
	rec := map[string]any{
		"commit":     commit(),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"seed":       cfg.seed,
		"workload":   cfg.workload,
		"preset":     cfg.preset,
		"seconds":    cfg.seconds.Seconds(),
		"trace":      cfg.trace,
		"workers":    cfg.procs,
		"setups":     cfg.setupRuns,
	}
	b, _ := json.Marshal(map[string]any{"record": rec})
	fmt.Fprintln(log, string(b))
}

// commit names the source tree: the git revision baked into the build
// when there is one, else a digest of the tree computed by run.sh.
func commit() string {
	if v := os.Getenv("PERFBENCH_COMMIT"); v != "" {
		return v
	}
	return "unknown"
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// sampler polls process-wide gauges while a phase runs.
type sampler struct {
	stop       chan struct{}
	done       chan struct{}
	goroutines atomic.Int64
	queue      atomic.Int64
}

func startSampler(e *env) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			if n := int64(runtime.NumGoroutine()); n > s.goroutines.Load() {
				s.goroutines.Store(n)
			}
			if q := e.reg.Gauge("timeserver.stream_queue_depth").Load(); q > s.queue.Load() {
				s.queue.Store(q)
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *sampler) halt() {
	close(s.stop)
	<-s.done
}
