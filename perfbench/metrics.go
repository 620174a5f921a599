package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"timedrelease/internal/bls381"
	"timedrelease/internal/obs"
	"timedrelease/internal/pairing"
	"timedrelease/internal/params"
)

// phase is one measured stretch of a workload with the counters read
// around it.
type phase struct {
	rec  *recorder
	wall time.Duration
	cpu  time.Duration

	gcPause  time.Duration
	alloc    uint64
	samp     *sampler
	bt, tbt  backendView // backend calls during the phase
	reg0     obs.Snapshot
	reg1     obs.Snapshot
	put      tallyView // archive appends
	rangeQ   tallyView // archive range reads
	putNS    []time.Duration
	http     tallyView
	archB    int64 // bytes appended to the update log
	spendB   int64 // bytes appended to the spend log
	redeemed int64
}

// measure runs the workload for d, tracing when traced.
func measure(ctx context.Context, e *env, w workload, d time.Duration, traced bool) *phase {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	p := &phase{rec: newRecorder(w.limit(), tr)}
	e.on.Store(traced)
	bt0, tbt0 := e.bt.view(), e.tbt.view()
	put0, range0, http0 := e.at.put.view(), e.at.rangeQ.view(), e.httpT.view()
	putN := e.at.putNS.len()
	arch0, spend0 := e.archiveSize(), e.spendLogSize()
	p.reg0 = e.reg.Snapshot()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	p.samp = startSampler(e)
	start := time.Now()

	w.run(ctx, d, p.rec)

	p.wall = time.Since(start)
	p.samp.halt()
	p.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	p.reg1 = e.reg.Snapshot()
	e.on.Store(false)
	p.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	p.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	p.bt, p.tbt = e.bt.view().sub(bt0), e.tbt.view().sub(tbt0)
	p.put, p.rangeQ, p.http = e.at.put.view().sub(put0), e.at.rangeQ.view().sub(range0), e.httpT.view().sub(http0)
	p.putNS = lastN(&e.at.putNS, putN)
	p.archB, p.spendB = e.archiveSize()-arch0, e.spendLogSize()-spend0
	p.redeemed = p.reg1.Counters["timeserver.tokens_redeemed"] - p.reg0.Counters["timeserver.tokens_redeemed"]
	return p
}

// lastN is the sorted samples recorded after the first from.
func lastN(s *samples, from int) []time.Duration {
	s.mu.Lock()
	out := append([]time.Duration(nil), s.d[from:]...)
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// endToEndMetrics are the metrics a user of the system sees.
func endToEndMetrics(setup float64, p *phase) map[string]metric {
	m := map[string]metric{
		"setup_s":       {setup, "s"},
		"ops_per_s":     {float64(p.rec.ops.Load()) / p.wall.Seconds(), "1/s"},
		"goodput_per_s": {float64(p.rec.good.Load()) / p.wall.Seconds(), "1/s"},
		"peak_rss_mb":   {peakRSSMB(), "MB"},
	}
	// p10 and p90, not p50: each vCPU of the 2-vCPU host switches
	// between an uncontended and a contended speed about every second,
	// so op latency is bimodal and the p50 falls between the two modes
	// and jumps with their mix (NOTES.md). p10 tracks the uncontended
	// cost and p90 the contended one.
	for k, name := range []string{"a", "b", "c"} {
		lat := p.rec.lat[k].snapshot()
		m[name+"_p10_ms"] = metric{quantileMS(lat, 0.1), "ms"}
		m[name+"_p90_ms"] = metric{quantileMS(lat, 0.9), "ms"}
	}
	return m
}

// layerMetrics are the per-layer numbers of the traced half, plus the
// tracing overhead measured against the untraced half.
func layerMetrics(cfg *config, e *env, off, on *phase) map[string]metric {
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	ops := float64(on.rec.ops.Load() + on.rec.failed.Load())
	perOp := func(x int64) float64 { return ratio(float64(x), ops) }
	msPerOp := func(ns int64) float64 { return ratio(float64(ns)/1e6, ops) }
	ctr := func(name string) int64 { return on.reg1.Counters[name] - on.reg0.Counters[name] }
	histMS := func(name string) float64 {
		a, b := on.reg0.Histograms[name], on.reg1.Histograms[name]
		return ratio(float64(b.SumNS-a.SumNS)/1e6, float64(b.Count-a.Count))
	}
	hit := func(name string) float64 {
		h, miss := ctr("core."+name+"_cache_hit"), ctr("core."+name+"_cache_miss")
		return ratio(float64(h), float64(h+miss))
	}

	for k, name := range []string{"a", "b", "c"} {
		lat := on.rec.lat[k].snapshot()
		set(name+"_p50_ms", quantileMS(lat, 0.5), "ms")
		set(name+"_p99_ms", quantileMS(lat, 0.99), "ms")
		set(name+"_samples", float64(len(lat)), "count")
	}
	set("cold.first_op_ms", meanMS(e.cold.snapshot()), "ms")

	// field: unit costs of both field implementations.
	fmul, fsqr, finv := bls381.BenchFieldOps()
	set("field.bls381.mul_ns", unitNS(20000, fmul), "ns")
	set("field.bls381.sqr_ns", unitNS(20000, fsqr), "ns")
	set("field.bls381.inv_ns", unitNS(200, finv), "ns")
	mmul, minv := montOps()
	set("field.ff.mul_ns", unitNS(20000, mmul), "ns")
	set("field.ff.inv_ns", unitNS(200, minv), "ns")

	// group
	b := on.bt
	set("group.hash_to_g2.calls_per_op", perOp(b.hashToG2.calls), "count")
	set("group.hash_to_g2.ms_per_op", msPerOp(b.hashToG2.ns), "ms")
	set("group.scalar_mult.calls_per_op", perOp(b.scalarMult.calls), "count")
	set("group.scalar_mult.ms_per_op", msPerOp(b.scalarMult.ns), "ms")
	set("group.decode.calls_per_op", perOp(b.decode.calls), "count")
	set("group.decode.ms_per_op", msPerOp(b.decode.ns), "ms")
	set("group.subgroup_check.calls_per_op", perOp(b.subgroup.calls), "count")
	set("group.subgroup_check.ms_per_op", msPerOp(b.subgroup.ns), "ms")

	// pairing
	set("pairing.pair.calls_per_op", perOp(b.pair.calls), "count")
	set("pairing.product.calls_per_op", perOp(b.product.calls), "count")
	set("pairing.product.pairs_per_call", ratio(float64(b.product.work), float64(b.product.calls)), "count")
	set("pairing.prepared.calls_per_op", perOp(b.prepared.calls), "count")
	set("pairing.ms_per_op", msPerOp(b.pairingTime()), "ms")
	set("pairing.gt_exp.calls_per_op", perOp(b.gtExp.calls), "count")
	set("pairing.gt_exp.ms_per_op", msPerOp(b.gtExp.ns), "ms")
	full, prep, prod4 := pairingUnits(cfg.preset)
	set("pairing.unit.full_ns", full, "ns")
	set("pairing.unit.prepared_ns", prep, "ns")
	set("pairing.unit.product4_ns", prod4, "ns")

	// scheme
	self, opTotal, _ := on.rec.tr.layerTimes()
	calls := on.rec.tr.counts()
	set("scheme.encrypt_cca_ms", ratio(float64(self["scheme.encrypt_cca"])/1e6, float64(calls["scheme.encrypt_cca"])), "ms")
	set("scheme.decrypt_cca_ms", ratio(float64(self["scheme.decrypt_cca"])/1e6, float64(calls["scheme.decrypt_cca"])), "ms")
	set("scheme.verify_ms", histMS("client.verify_ns"), "ms")
	corePairings := ctr("core.pairings")
	set("scheme.pairings_per_op", perOp(corePairings), "count")
	set("scheme.label_cache_hit_ratio", hit("labelpoint"), "ratio")
	set("scheme.prepared_cache_hit_ratio", hit("prepared"), "ratio")
	set("scheme.basetable_cache_hit_ratio", hit("basetable"), "ratio")

	// token
	set("token.redeem_ms", histMS("timeserver.token_redeem_ns"), "ms")
	set("token.replays_rejected", float64(ctr("timeserver.token_double_spend")), "count")
	set("token.pairings_per_op", perOp(on.tbt.pairings()), "count")

	// storage
	set("storage.archive_put_p50_ms", quantileMS(on.putNS, 0.5), "ms")
	set("storage.archive_put_p99_ms", quantileMS(on.putNS, 0.99), "ms")
	set("storage.archive_puts", float64(on.put.calls), "count")
	set("storage.archive_bytes_per_put", ratio(float64(on.archB), float64(on.put.calls)), "B")
	set("storage.spend_log_bytes_per_redeem", ratio(float64(on.spendB), float64(on.redeemed)), "B")

	// request
	set("request.fetch_ms", ratio(float64(on.http.ns)/1e6, float64(on.http.calls)), "ms")
	set("request.server_update_ms", histMS("timeserver.request_ns.update"), "ms")
	set("request.server_page_ms", histMS("timeserver.request_ns.catchup"), "ms")
	set("request.publish_ms", histMS("timeserver.publish_ns"), "ms")
	set("request.fanout_ms", histMS("timeserver.fanout_ns"), "ms")
	set("request.http_per_op", perOp(on.http.calls), "count")
	set("request.catchup_pages_per_op", perOp(ctr("client.catchup_aggregate")), "count")
	set("request.catchup_fallbacks", float64(ctr("client.catchup_fallback")), "count")
	set("request.catchup_aggregate_checks", float64(b.aggregate.calls), "count")
	set("request.stream_sheds", float64(ctr("timeserver.stream_sheds")), "count")
	set("request.stream_queue_depth_max", float64(on.samp.queue.Load()), "count")

	// gen and runtime
	set("gen.lag_p90_ms", quantileMS(on.rec.lag.snapshot(), 0.9), "ms")
	set("gen.backlog_max", float64(on.rec.backlogMax.Load()), "count")
	set("runtime.cpu_busy_frac", on.cpu.Seconds()/(on.wall.Seconds()*float64(runtime.NumCPU())), "ratio")
	set("runtime.gc_pause_ms_per_s", ms(on.gcPause)/on.wall.Seconds(), "ms")
	set("runtime.alloc_kb_per_op", ratio(float64(on.alloc)/1024, ops), "KiB")
	set("runtime.goroutines_max", float64(on.samp.goroutines.Load()), "count")

	// trace: overhead against the untraced half, the share of op time
	// no span explains, and the pairing cross-check.
	set("trace.overhead_frac", ratio(meanOpMS(on), meanOpMS(off))-1, "ratio")
	set("trace.unexplained_frac", ratio(float64(self["op"]), float64(opTotal)), "ratio")
	set("trace.pairings_decorator", float64(b.pairings()), "count")
	set("trace.pairings_core", float64(corePairings), "count")
	set("trace.pairing_mismatch", float64(b.pairings()-corePairings), "count")
	return m
}

// meanOpMS is the mean latency over every latency class of a phase.
func meanOpMS(p *phase) float64 {
	var all []time.Duration
	for k := range p.rec.lat {
		all = append(all, p.rec.lat[k].snapshot()...)
	}
	return meanMS(all)
}

// unitNS is the median per-call cost of fn over five batches of n.
func unitNS(n int, fn func()) float64 {
	var per []float64
	for r := 0; r < 5; r++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return median(per)
}

// montOps returns closures over the SS512 base field's fixed-limb
// Montgomery multiplication and inversion.
func montOps() (mul, inv func()) {
	m := params.MustPreset("SS512").Curve.F.Mont()
	a, b, r := m.NewElem(), m.NewElem(), m.NewElem()
	m.ToMont(a, new(big.Int).SetBytes([]byte("ss512 bench operand a")))
	m.ToMont(b, new(big.Int).SetBytes([]byte("ss512 bench operand b")))
	return func() { m.Mul(r, a, b) }, func() { m.Inv(r, a) }
}

// pairingUnits times one full pairing, one pairing with a prepared
// first argument, and a four-pair product on the workload's preset.
func pairingUnits(preset string) (full, prepared, product4 float64) {
	if preset == params.PresetBLS12381 {
		pf, pp, _, p4, _ := bls381.BenchPairingOps()
		return unitNS(4, pf), unitNS(4, pp), unitNS(2, p4)
	}
	set := params.MustPreset(preset)
	pr, c := set.Pairing, set.Curve
	p := c.HashToGroup("perfbench", []byte("P"))
	q := c.HashToGroup("perfbench", []byte("Q"))
	prep := pr.Precompute(p)
	pairs := make([]pairing.PointPair, 4)
	for i := range pairs {
		pairs[i] = pairing.PointPair{P: c.HashToGroup("perfbench", []byte{byte(i)}), Q: c.HashToGroup("perfbench", []byte{byte(16 + i)})}
	}
	var sink any
	full = unitNS(4, func() { sink = pr.Pair(p, q) })
	prepared = unitNS(4, func() { sink = pr.PairPrepared(prep, q) })
	product4 = unitNS(2, func() { sink = pr.PairProduct(pairs) })
	_ = sink
	return full, prepared, product4
}

// report writes a readable summary before the result line.
func report(w io.Writer, classes [kinds]string, setups []float64, p *phase, m map[string]metric, total *recorder) {
	fmt.Fprintf(w, "setups (s): %v\n", setups)
	for k, name := range []string{"a", "b", "c"} {
		fmt.Fprintf(w, "class %s = %s (%d samples)\n", name, classes[k], len(p.rec.lat[k].snapshot()))
	}
	if p.rec.tr != nil {
		self, opTotal, ops := p.rec.tr.layerTimes()
		fmt.Fprintf(w, "per op (ms): op latency %.3f; span self time:", ratio(float64(opTotal)/1e6, float64(ops)))
		for _, name := range sortedKeys(self) {
			fmt.Fprintf(w, " %s %.3f", name, ratio(float64(self[name])/1e6, float64(ops)))
		}
		fmt.Fprintln(w)
		b := p.bt
		fmt.Fprintf(w, "per op (ms): layer busy time: group %.3f pairing %.3f storage %.3f http %.3f\n",
			ratio(float64(b.groupTime())/1e6, float64(ops)), ratio(float64(b.pairingTime())/1e6, float64(ops)),
			ratio(float64(p.put.ns+p.rangeQ.ns)/1e6, float64(ops)), ratio(float64(p.http.ns)/1e6, float64(ops)))
		dec, core := m["trace.pairings_decorator"].Value, m["trace.pairings_core"].Value
		verdict := "match"
		if dec != core {
			verdict = "MISMATCH: some pairing path bypasses the decorated set.B or core's counter"
		}
		fmt.Fprintf(w, "pairing cross-check: decorator %.0f, core.pairings %.0f: %s\n", dec, core, verdict)
	}
	for _, name := range sortedKeys(m) {
		fmt.Fprintf(w, "%-40s %14.4f %s\n", name, m[name].Value, m[name].Unit)
	}
	total.failMu.Lock()
	for _, f := range total.fails {
		fmt.Fprintln(w, "FAILED:", f)
	}
	total.failMu.Unlock()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeSpans keeps the traced half's spans next to the build output.
func writeSpans(cfg *config, tr *tracer) {
	f, err := os.Create(filepath.Join(filepath.Dir(cfg.workDir), fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed)))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: spans:", err)
		return
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: spans:", err)
			return
		}
	}
}
