package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"timedrelease/internal/core"
	"timedrelease/internal/timeserver"
)

const (
	sealOpenLabels   = 32  // released labels, and as many future ones
	sealOpenUsers    = 16  // receiver key pairs
	sealOpenFixtures = 64  // ciphertexts made during set-up for opens
	sealOpenMsgLen   = 256 // message bytes
	sealSampleCap    = 32  // seal outputs decrypted after the run
	// sealOpenWorkers is the closed loop's concurrency. On a 2-vCPU box
	// whose vCPUs are at times hyperthread siblings, two workers made
	// throughput swing between runs by up to 40%; one worker is steady.
	sealOpenWorkers = 1
)

// sealOpen is the paper's two user operations. Each op of the closed
// loop is, 50/50 by the
// seeded RNG, a seal (EncryptCCA to a future label) or an open (an
// uncached Client.Update of a released label plus DecryptCCA of a
// set-up ciphertext). Latency classes: a = seal, b = open, c = the
// verified update fetch (Client.Update) inside an open.
type sealOpen struct {
	e        *env
	sc       *core.Scheme // the receivers' and senders' scheme; cold until warm-up
	client   *timeserver.Client
	users    []*core.UserKeyPair
	released []string
	future   []string
	fixtures []sealed
	phase    int64

	sampleMu sync.Mutex
	sample   []sealed // seal outputs checked after the run
}

// sealed is one ciphertext with what it must decrypt to.
type sealed struct {
	label string
	user  int
	msg   []byte
	ct    *core.CCACiphertext
}

func (w *sealOpen) limit() time.Duration { return 250 * time.Millisecond }

func (w *sealOpen) setup(ctx context.Context, e *env, rec *recorder) error {
	w.e = e
	// Keys and fixtures come from a scheme of their own, so the workers'
	// scheme starts cold and the first op of each worker shows what a
	// cold process pays.
	fix := core.NewScheme(e.set)
	for i := 0; i < sealOpenUsers; i++ {
		u, err := fix.UserKeyGen(e.spub, e.rng)
		if err != nil {
			return err
		}
		w.users = append(w.users, u)
	}
	w.released = e.history[len(e.history)-sealOpenLabels:]
	w.future = e.futureLabels(sealOpenLabels)
	w.fixtures = make([]sealed, sealOpenFixtures)
	for i := range w.fixtures {
		f := &w.fixtures[i]
		f.label = w.released[i%sealOpenLabels]
		f.user = e.rng.Intn(sealOpenUsers)
		f.msg = make([]byte, sealOpenMsgLen)
		e.rng.Read(f.msg)
	}
	seeds := make([]int64, len(w.fixtures))
	for i := range seeds {
		seeds[i] = e.rng.Int63()
	}
	errs := make([]error, e.cfg.procs)
	parallel(e.cfg.procs, func(p int) {
		for i := p; i < len(w.fixtures); i += e.cfg.procs {
			f := &w.fixtures[i]
			f.ct, errs[p] = fix.EncryptCCA(rand.New(rand.NewSource(seeds[i])), e.spub, w.users[f.user].Pub, f.label, f.msg)
			if errs[p] != nil {
				return
			}
		}
	})
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if e.cfg.faults.corruptExpected {
		for i := range w.fixtures {
			w.fixtures[i].msg = append([]byte(nil), w.fixtures[i].msg...)
			w.fixtures[i].msg[0] ^= 1
		}
	}

	w.sc = core.NewScheme(e.set).Instrument(e.reg)
	w.client = timeserver.NewClient(e.base, e.set, e.spub,
		timeserver.WithHTTPClient(&http.Client{Transport: e.newTransport(sealOpenWorkers), Timeout: 30 * time.Second}),
		timeserver.WithScheme(w.sc),
		timeserver.WithClientMetrics(e.reg),
		timeserver.WithoutCache())

	// Warm-up: every worker seals to its share of the future labels and
	// opens its share of the released ones, which fills the label,
	// prepared-key and base-table caches. The first op per worker is
	// the cold one.
	parallel(sealOpenWorkers, func(p int) {
		rng := rand.New(rand.NewSource(e.cfg.seed ^ int64(p+1)<<40))
		for i := p; i < sealOpenLabels; i += sealOpenWorkers {
			start := time.Now()
			w.seal(ctx, rng, rec, i, false)
			if i == p {
				e.cold.add(time.Since(start))
			}
			w.open(ctx, rec, i)
		}
	})
	return nil
}

func (w *sealOpen) run(ctx context.Context, d time.Duration, rec *recorder) {
	w.phase++
	deadline := time.Now().Add(d)
	parallel(sealOpenWorkers, func(p int) {
		rng := rand.New(rand.NewSource(w.e.cfg.seed ^ w.phase<<32 ^ int64(p+1)<<48))
		for time.Now().Before(deadline) {
			if rng.Intn(2) == 0 {
				w.seal(ctx, rng, rec, rng.Intn(sealOpenLabels), true)
			} else {
				w.open(ctx, rec, rng.Intn(sealOpenFixtures))
			}
		}
	})
}

// seal encrypts a fresh seeded message to future label i; keep adds the
// output to the post-run sample.
func (w *sealOpen) seal(ctx context.Context, rng *rand.Rand, rec *recorder, i int, keep bool) {
	s := sealed{label: w.future[i], user: rng.Intn(sealOpenUsers), msg: make([]byte, sealOpenMsgLen)}
	rng.Read(s.msg)
	start := time.Now()
	_, op := rec.tr.begin(ctx, start)
	ct, err := w.sc.EncryptCCA(rng, w.e.spub, w.users[s.user].Pub, s.label, s.msg)
	end := time.Now()
	op.child("scheme.encrypt_cca", start, end)
	op.end("seal", end)
	rec.done(0, end.Sub(start), err)
	if err == nil && keep {
		s.ct = ct
		w.sampleMu.Lock()
		if len(w.sample) < sealSampleCap && rng.Intn(8) == 0 {
			w.sample = append(w.sample, s)
		}
		w.sampleMu.Unlock()
	}
}

// open fetches the update of fixture i's label uncached and decrypts
// the fixture with it.
func (w *sealOpen) open(ctx context.Context, rec *recorder, i int) {
	f := w.fixtures[i%len(w.fixtures)]
	start := time.Now()
	octx, op := rec.tr.begin(ctx, start)
	pt, fetch, err := w.decrypt(octx, op, f)
	end := time.Now()
	op.end("open", end)
	if err == nil && !bytes.Equal(pt, f.msg) {
		err = fmt.Errorf("open %s: plaintext differs from the original", f.label)
	}
	rec.done(1, end.Sub(start), err)
	if err == nil {
		rec.lat[2].add(fetch)
	}
}

// decrypt fetches f's update and decrypts f with it, returning the
// plaintext and how long the verified fetch took.
func (w *sealOpen) decrypt(ctx context.Context, op *opSpan, f sealed) ([]byte, time.Duration, error) {
	t0 := time.Now()
	u, err := w.client.Update(ctx, f.label)
	t1 := time.Now()
	op.child("client.update", t0, t1)
	if err != nil {
		return nil, 0, err
	}
	if !w.e.sameAsKnown(u) {
		return nil, 0, fmt.Errorf("update %s differs from the known-good encoding", u.Label)
	}
	pt, err := w.sc.DecryptCCA(w.e.spub, w.users[f.user], u, f.ct)
	op.child("scheme.decrypt_cca", t1, time.Now())
	return pt, t1.Sub(t0), err
}

// finish releases the future labels and opens the sampled seals with
// the updates issued for them.
func (w *sealOpen) finish(ctx context.Context, rec *recorder) {
	e := w.e
	e.advance(sealOpenLabels)
	if _, err := e.srv.PublishUpTo(e.now()); err != nil {
		rec.check(err)
		return
	}
	for _, s := range w.sample {
		pt, _, err := w.decrypt(ctx, nil, s)
		if err == nil && !bytes.Equal(pt, s.msg) {
			err = fmt.Errorf("sealed message to %s decrypts wrongly", s.label)
		}
		rec.check(err)
	}
	if len(w.sample) == 0 {
		rec.check(fmt.Errorf("no seal output was sampled"))
	}
}

func (w *sealOpen) spends() int64 { return 0 }
func (w *sealOpen) stop()         {}

// parallel runs fn(0..n-1) on n goroutines and waits for them.
func parallel(n int, fn func(p int)) {
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			fn(p)
		}(p)
	}
	wg.Wait()
}
