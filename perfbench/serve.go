package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"timedrelease/internal/archive"
	"timedrelease/internal/core"
	"timedrelease/internal/timeserver"
	"timedrelease/internal/token"
	"timedrelease/internal/wire"
)

// The serve schedule. Rates are per second of wall time; BENCHMARK.json
// states them in the workload's description. No fetch falls due in the
// servePageSlot after a page's due time: the generator has a single
// request connection, and fetches queued behind a ~25 ms page made the
// fetch p90 a function of page time, amplifying its run-to-run spread
// to 25%; other clients' fetches would not wait behind a page.
const (
	serveFetchRate   = 500.0 // raw /v1/update fetches, outside page slots
	servePageRate    = 10.0  // token-gated /v1/catchup pages
	servePublishRate = 5.0   // forward epoch publishes
	serveReplayEvery = 10    // every 10th page replays a spent token
	servePageLen     = 32    // updates per page
	servePageSlot    = 0.05  // seconds after a page's due time with no fetch due
	serveWindows     = 16    // distinct page windows
	serveWarm        = time.Second
)

// serve is the gated server under an open-loop schedule: one request
// connection carries fetches and gated pages, a second one is a
// /v1/stream subscriber, and the server's injected clock is advanced
// to publish one forward epoch at a fixed interval. Every request is
// timed from its due time. Latency classes: a = fetch, b = gated page
// (token redemption), c = release, from the scheduled publish to the
// subscriber holding the verified, known-good update.
type serve struct {
	e       *env
	hc      *http.Client
	windows []pageWindow
	order   []int // seeded order in which pages visit the windows
	tokens  []token.Token
	spent   string // header of the last admitted page's token
	pages   int
	// admitted counts the gated pages the server acknowledged.
	admitted atomic.Int64
	phase    int64

	// releases pending at the subscriber, by label, with their due time.
	relMu   sync.Mutex
	relCond *sync.Cond
	due     map[string]time.Time
	rec     atomic.Pointer[recorder]

	streamCancel context.CancelFunc
	streamDone   chan struct{}
}

// pageWindow is one gated page target and its known-good body.
type pageWindow struct {
	from, to string
	body     []byte
}

func (w *serve) limit() time.Duration { return 100 * time.Millisecond }

func (w *serve) setup(ctx context.Context, e *env, rec *recorder) error {
	w.e = e
	w.hc = &http.Client{Transport: e.newTransport(max(1, e.cfg.procs-1)), Timeout: 30 * time.Second}
	w.due = make(map[string]time.Time)
	w.relCond = sync.NewCond(&w.relMu)

	// Known-good page bodies, computed from the acknowledged updates by
	// the in-memory archive's range code, not the durable log's.
	mem := archive.NewMemory()
	for _, l := range e.history {
		u, _ := e.arch.Get(l)
		if err := mem.Put(u); err != nil {
			return err
		}
	}
	// The windows are spread evenly over the history, so every seed
	// asks for the same mix of positions (range cost grows with the
	// window's position below the first checkpoint); the seed only
	// orders them.
	for i := 0; i < serveWindows; i++ {
		lo := i * (len(e.history) - servePageLen) / (serveWindows - 1)
		win := pageWindow{from: e.history[lo], to: e.history[lo+servePageLen-1]}
		res, err := archive.RangeOf(mem, e.codec, win.from, win.to, servePageLen)
		if err != nil {
			return err
		}
		win.body = e.codec.MarshalCatchUpResponse(wire.CatchUpResponse{Total: res.Total, Updates: res.Updates, Aggregate: res.Aggregate, Root: res.Root})
		w.windows = append(w.windows, win)
	}
	w.order = e.rng.Perm(serveWindows)
	// Pages of the warm-up and the run, plus one token to spare per
	// phase boundary.
	pages := int(math.Ceil((serveWarm+e.cfg.seconds).Seconds()*servePageRate)) + 3
	w.tokens = e.mintTokens(pages + 1)

	// The subscriber, on its own connection.
	wallet := token.NewWallet(e.set)
	if err := wallet.Add(w.tokens[0]); err != nil {
		return err
	}
	w.tokens = w.tokens[1:]
	sub := timeserver.NewClient(e.base, e.set, e.spub,
		timeserver.WithHTTPClient(&http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}),
		timeserver.WithClientMetrics(e.reg),
		timeserver.WithTokenWallet(wallet))
	sctx, cancel := context.WithCancel(ctx)
	w.streamCancel, w.streamDone = cancel, make(chan struct{})
	go func() {
		defer close(w.streamDone)
		_, err := sub.StreamUpdates(sctx, "", w.received)
		if sctx.Err() == nil {
			if r := w.rec.Load(); r != nil {
				r.check(fmt.Errorf("stream subscriber ended early: %v", err))
			}
		}
	}()
	for e.srv.Subscribers() == 0 {
		select {
		case <-w.streamDone:
			return errors.New("stream subscriber failed to connect")
		case <-time.After(time.Millisecond):
		}
	}

	w.rec.Store(rec)
	w.schedule(ctx, serveWarm, rec, true)
	return nil
}

func (w *serve) run(ctx context.Context, d time.Duration, rec *recorder) {
	w.rec.Store(rec)
	w.schedule(ctx, d, rec, false)
}

// event is one scheduled request.
type event struct {
	due  time.Time
	page bool
	pick int // label or window index
}

// schedule runs d of the fixed, seeded schedule and waits for the
// releases it caused.
func (w *serve) schedule(ctx context.Context, d time.Duration, rec *recorder, warm bool) {
	w.phase++
	rng := newRand(w.e.cfg.seed ^ w.phase<<32)
	start := time.Now().Add(5 * time.Millisecond)
	var evs []event
	for i := 0; i < int(d.Seconds()*serveFetchRate); i++ {
		off := float64(i) / serveFetchRate
		pick := rng.Intn(len(w.e.history))
		// Pages fall due half a page period in; ph is the time since
		// the last one, in page periods.
		if ph := math.Mod(off*servePageRate+0.5, 1); ph < servePageSlot*servePageRate {
			continue // inside a page's slot
		}
		evs = append(evs, event{due: start.Add(time.Duration(off * float64(time.Second))), pick: pick})
	}
	for i := 0; i < int(d.Seconds()*servePageRate); i++ {
		off := (float64(i) + 0.5) / servePageRate
		evs = append(evs, event{due: start.Add(time.Duration(off * float64(time.Second))), page: true, pick: w.order[i%serveWindows]})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].due.Before(evs[j].due) })
	publishes := int(d.Seconds() * servePublishRate)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < publishes; i++ {
			// Publishes fall due between pages, so a release does not
			// contend with a page for the CPU by construction.
			due := start.Add(time.Duration(float64(i) / servePublishRate * float64(time.Second)))
			sleepUntil(due)
			w.publish(ctx, rec, due)
		}
	}()
	// The generator hands each request to the connection's sender at
	// its due time, whether or not the previous one has finished; the
	// queue holds every request of the phase, so a send never blocks.
	queue := make(chan event, len(evs))
	go func() {
		defer wg.Done()
		cold := warm // the warm-up's first fetch is the cold one
		for ev := range queue {
			if ev.page {
				w.page(ctx, rec, ev)
				continue
			}
			lat := w.fetch(ctx, rec, ev)
			if cold {
				w.e.cold.add(lat)
				cold = false
			}
		}
	}()
	for _, ev := range evs {
		sleepUntil(ev.due)
		rec.lag.add(time.Since(ev.due))
		queue <- ev
		if b := int64(len(queue)); b > rec.backlogMax.Load() {
			rec.backlogMax.Store(b)
		}
	}
	close(queue)
	wg.Wait()
	w.awaitReleases(rec, 2*time.Second)
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// fetch is one raw /v1/update request, byte-compared.
func (w *serve) fetch(ctx context.Context, rec *recorder, ev event) time.Duration {
	label := w.e.history[ev.pick]
	octx, op := rec.tr.begin(ctx, ev.due)
	req, err := http.NewRequestWithContext(octx, http.MethodGet, w.e.base+"/v1/update/"+label, nil)
	var status int
	var body []byte
	if err == nil {
		status, body, err = do(w.hc, req)
	}
	end := time.Now()
	op.end("fetch", end)
	if err == nil {
		want, _ := w.e.expect(label)
		if status != http.StatusOK || !bytes.Equal(body, want) {
			err = fmt.Errorf("fetch %s: status %d, body differs from the known-good encoding", label, status)
		}
	}
	rec.done(0, end.Sub(ev.due), err)
	return end.Sub(ev.due)
}

// page is one gated /v1/catchup request. Every serveReplayEvery-th
// replays the last admitted token and must be refused with 409.
func (w *serve) page(ctx context.Context, rec *recorder, ev event) {
	win := w.windows[ev.pick]
	w.pages++
	replay := w.pages%serveReplayEvery == 0 && w.spent != ""
	tok := w.spent
	if !replay {
		if len(w.tokens) == 0 {
			rec.done(1, 0, errors.New("serve ran out of tokens"))
			return
		}
		tok = w.e.tokenHeader(w.tokens[0])
		w.tokens = w.tokens[1:]
	}
	path := "/v1/catchup?from=" + url.QueryEscape(win.from) + "&to=" + url.QueryEscape(win.to) + fmt.Sprintf("&limit=%d", servePageLen)
	octx, op := rec.tr.begin(ctx, ev.due)
	status, body, err := w.e.gatedGet(octx, w.hc, path, tok)
	end := time.Now()
	op.end("page", end)
	if replay {
		if err == nil && status != http.StatusConflict {
			err = fmt.Errorf("replayed token got status %d, want 409", status)
		}
		rec.done(-1, end.Sub(ev.due), err)
		return
	}
	if err == nil && status == http.StatusOK {
		w.admitted.Add(1)
		w.spent = tok
	}
	if err == nil && (status != http.StatusOK || !bytes.Equal(body, win.body)) {
		err = fmt.Errorf("page %s..%s: status %d, body differs from the known-good encoding", win.from, win.to, status)
	}
	rec.done(1, end.Sub(ev.due), err)
}

// publish advances the server clock one epoch and publishes it.
func (w *serve) publish(ctx context.Context, rec *recorder, due time.Time) {
	e := w.e
	label := e.sched.LabelAt(e.sched.Index(e.now()) + 1)
	w.relMu.Lock()
	w.due[label] = due
	w.relMu.Unlock()
	_, op := rec.tr.begin(ctx, due)
	t0 := time.Now()
	n, err := e.srv.PublishUpTo(e.advance(1))
	op.child("server.publish_up_to", t0, time.Now())
	op.end("publish", time.Now())
	if err == nil && n != 1 {
		err = fmt.Errorf("publish of %s wrote %d updates, want 1", label, n)
	}
	rec.check(err)
}

// received is the subscriber's callback: the update has been verified
// against the server key by the client; it must also be the known-good
// encoding and must not arrive before its epoch.
func (w *serve) received(u core.KeyUpdate) error {
	now := time.Now()
	rec := w.rec.Load()
	var err error
	if t, perr := w.e.sched.ParseLabel(u.Label); perr != nil || w.e.now().Before(t) {
		err = fmt.Errorf("update %s reached a subscriber before its epoch", u.Label)
	} else if !w.e.sameAsKnown(u) {
		err = fmt.Errorf("streamed update %s differs from the known-good encoding", u.Label)
	}
	w.relMu.Lock()
	due, ok := w.due[u.Label]
	delete(w.due, u.Label)
	w.relCond.Broadcast()
	w.relMu.Unlock()
	if !ok && err == nil {
		err = fmt.Errorf("unexpected streamed update %s", u.Label)
	}
	rec.done(2, now.Sub(due), err)
	return nil
}

// awaitReleases waits up to timeout for every published epoch to reach
// the subscriber; what has not is a failure.
func (w *serve) awaitReleases(rec *recorder, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		w.relMu.Lock()
		w.relCond.Broadcast()
		w.relMu.Unlock()
	})
	defer timer.Stop()
	w.relMu.Lock()
	defer w.relMu.Unlock()
	for len(w.due) > 0 && time.Now().Before(deadline) {
		w.relCond.Wait()
	}
	for label := range w.due {
		rec.done(2, 0, fmt.Errorf("release %s never reached the subscriber", label))
		delete(w.due, label)
	}
}

func (w *serve) finish(context.Context, *recorder) {}

// spends is what the server acknowledged: admitted pages plus the
// subscriber's stream dial.
func (w *serve) spends() int64 {
	return w.admitted.Load() + w.e.reg.Snapshot().Counters["client.token_redeemed"]
}

func (w *serve) stop() {
	if w.streamCancel != nil {
		w.streamCancel()
		<-w.streamDone
	}
}
