package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"timedrelease/internal/core"
	"timedrelease/internal/timeserver"
	"timedrelease/internal/token"
)

const (
	// catchupEpochs is how many missed epochs one recovery fetches.
	catchupEpochs = 96
	// catchupStarts is how many distinct windows the recoveries visit.
	catchupStarts = 4
)

// catchup is the returning receiver, one at a time. Each op builds a
// fresh core.Scheme and client, as a cold start does, and recovers a
// seeded window of missed epochs with CatchUp, spending one token on
// the gated range page. Latency classes: a = the whole recovery, b =
// its HTTP exchanges, c = the rest, i.e. the client-side work.
type catchup struct {
	e      *env
	hc     *http.Client
	tokens []token.Token
	phase  int64
}

func (w *catchup) limit() time.Duration { return 5 * time.Second }

func (w *catchup) setup(ctx context.Context, e *env, rec *recorder) error {
	w.e = e
	w.hc = &http.Client{Transport: e.newTransport(1), Timeout: 60 * time.Second}
	w.tokens = e.mintTokens(4)
	start := time.Now()
	w.op(ctx, rec, 0)
	e.cold.add(time.Since(start))
	return nil
}

func (w *catchup) run(ctx context.Context, d time.Duration, rec *recorder) {
	w.phase++
	// The recovered windows cycle through evenly spaced starts in a
	// seeded order, so every seed asks for the same mix of positions
	// (the server's range cost grows with the window's position below
	// the first checkpoint).
	order := newRand(w.e.cfg.seed ^ w.phase<<32).Perm(catchupStarts)
	for i, deadline := 0, time.Now().Add(d); time.Now().Before(deadline); i++ {
		w.op(ctx, rec, order[i%catchupStarts]*(historyEpochs-catchupEpochs)/(catchupStarts-1))
	}
}

// op recovers the catchupEpochs labels starting at history index from.
func (w *catchup) op(ctx context.Context, rec *recorder, from int) {
	if len(w.tokens) == 0 {
		// Out of tokens: mint more outside any timed op.
		w.tokens = w.e.mintTokens(8)
	}
	tok := w.tokens[0]
	w.tokens = w.tokens[1:]
	labels := w.e.history[from : from+catchupEpochs]

	start := time.Now()
	octx, op := rec.tr.begin(ctx, start)
	wallet := token.NewWallet(w.e.set)
	err := wallet.Add(tok)
	var got []core.KeyUpdate
	if err == nil {
		client := timeserver.NewClient(w.e.base, w.e.set, w.e.spub,
			timeserver.WithHTTPClient(w.hc),
			timeserver.WithScheme(core.NewScheme(w.e.set)),
			timeserver.WithClientMetrics(w.e.reg),
			timeserver.WithTokenWallet(wallet))
		t0 := time.Now()
		got, err = client.CatchUp(octx, labels)
		op.child("client.catchup", t0, time.Now())
	}
	end := time.Now()
	op.end("recover", end)
	if err == nil {
		err = w.check(labels, got)
	}
	rec.done(0, end.Sub(start), err)
	if err == nil {
		h := time.Duration(op.http.Load())
		rec.lat[1].add(h)
		rec.lat[2].add(end.Sub(start) - h)
	}
}

// check demands every label back, in order, byte-equal to the known
// encoding.
func (w *catchup) check(labels []string, got []core.KeyUpdate) error {
	if len(got) != len(labels) {
		return fmt.Errorf("catch-up returned %d of %d updates", len(got), len(labels))
	}
	for i, u := range got {
		if u.Label != labels[i] || !w.e.sameAsKnown(u) {
			return fmt.Errorf("catch-up update %s differs from the known-good encoding", labels[i])
		}
	}
	return nil
}

func (w *catchup) finish(context.Context, *recorder) {}

// spends is what the server acknowledged: every range page the clients
// got admitted with a token.
func (w *catchup) spends() int64 {
	return w.e.reg.Snapshot().Counters["client.token_redeemed"]
}

func (w *catchup) stop() {}
