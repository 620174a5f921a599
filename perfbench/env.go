package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"timedrelease/internal/archive"
	"timedrelease/internal/core"
	"timedrelease/internal/obs"
	"timedrelease/internal/params"
	"timedrelease/internal/timefmt"
	"timedrelease/internal/timeserver"
	"timedrelease/internal/token"
	"timedrelease/internal/wire"
)

const (
	// historyEpochs are published through the durable archive during
	// set-up: the released labels of seal-open, the missed epochs of
	// catchup and the fetch and page targets of serve.
	historyEpochs = 128
	// epoch is the schedule granularity. The server clock is virtual,
	// so an epoch lasts as long as the workload wants.
	epoch = time.Minute
)

// genesis is the virtual time of the first history epoch.
var genesis = time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)

// faults are deliberate defects the benchmark's own tests inject to
// prove the correctness oracle counts them.
type faults struct {
	// corruptExpected flips a byte of every known-good encoding and
	// expected plaintext after set-up.
	corruptExpected bool
	// admitReplays serves /v1/catchup from an ungated handler, so a
	// replayed token is admitted.
	admitReplays bool
}

// env is one booted system: an in-process time server over loopback
// HTTP with a durable archive and a durable spend ledger in its own
// directory, and the benchmark's view of everything it published.
type env struct {
	cfg  *config
	dir  string
	rng  *rand.Rand
	set  *params.Set // set.B is decorated when tracing
	tset *params.Set // the token verifier's set, decorated separately
	// bt and tbt count the backend calls of set and tset; nil unless
	// tracing.
	bt, tbt *backendTallies
	at      *archiveTallies
	on      *atomic.Bool // tracing switch shared by every decorator

	codec *wire.Codec
	sched timefmt.Schedule
	clock atomic.Int64 // virtual server time, Unix nanoseconds
	key   *core.ServerKeyPair
	spub  core.ServerPublicKey
	reg   *obs.Registry

	arch   *archive.Log
	ledger *token.Ledger
	iss    *token.Issuer
	srv    *timeserver.Server
	hs     *http.Server
	served chan error
	base   string

	// known holds the encoding of every acknowledged update by label.
	knownMu sync.RWMutex
	known   map[string][]byte
	history []string // published history labels, oldest first

	// httpT times the requests of every client the workload builds
	// through newTransport.
	httpT tally
	// cold holds the first operation of each worker, before warm-up.
	cold samples
}

// boot brings up a fresh system and publishes the history.
func boot(cfg *config) (*env, error) {
	dir, err := os.MkdirTemp(cfg.workDir, "env-")
	if err != nil {
		return nil, fmt.Errorf("creating env dir: %w", err)
	}
	e := &env{
		cfg:   cfg,
		dir:   dir,
		rng:   rand.New(rand.NewSource(cfg.seed)),
		on:    new(atomic.Bool),
		sched: timefmt.MustSchedule(epoch),
		reg:   obs.NewRegistry(),
		known: make(map[string][]byte),
	}
	if err := e.start(); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *env) start() error {
	base, err := params.Preset(e.cfg.preset)
	if err != nil {
		return err
	}
	e.set, e.tset = base, base
	if e.cfg.trace {
		e.bt = &backendTallies{on: e.on}
		e.tbt = &backendTallies{on: e.on}
		s, ts := *base, *base
		s.B = tracedBackend{base.B, e.bt}
		ts.B = tracedBackend{base.B, e.tbt}
		e.set, e.tset = &s, &ts
	}
	e.at = &archiveTallies{on: e.on}
	e.codec = wire.NewCodec(e.set)
	sc := core.NewScheme(e.set)
	if e.key, err = sc.ServerKeyGen(e.rng); err != nil {
		return err
	}
	e.spub = e.key.Pub
	if e.iss, err = token.GenerateIssuer(e.set, e.rng); err != nil {
		return err
	}

	e.arch, err = archive.OpenDir(filepath.Join(e.dir, "archive"), e.codec)
	if err != nil {
		return err
	}
	tarch := &tracedArchive{inner: e.arch, t: e.at, onPut: e.remember}
	if err := os.Mkdir(filepath.Join(e.dir, "ledger"), 0o700); err != nil {
		return err
	}
	e.ledger, _, err = token.OpenLedger(filepath.Join(e.dir, "ledger"))
	if err != nil {
		return err
	}
	e.clock.Store(genesis.UnixNano())
	clock := func() time.Time { return time.Unix(0, e.clock.Load()).UTC() }
	common := []timeserver.Option{
		timeserver.WithArchive(tarch),
		timeserver.WithClock(clock),
		timeserver.WithMetrics(e.reg),
		timeserver.WithTokenIssuer(e.iss),
	}
	gate := token.NewVerifier(e.tset, e.iss.Public(), e.ledger)
	e.srv = timeserver.NewServer(e.set, e.key, e.sched, append(common, timeserver.WithTokenGate(gate))...)
	handler := e.srv.Handler()
	if e.cfg.faults.admitReplays {
		open := timeserver.NewServer(e.set, e.key, e.sched, common...).Handler()
		gated := handler
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/catchup" {
				open.ServeHTTP(w, r)
				return
			}
			gated.ServeHTTP(w, r)
		})
	}

	// History: the first PublishUpTo publishes only the current epoch,
	// the second every epoch up to the new clock.
	if _, err := e.srv.PublishUpTo(genesis); err != nil {
		return err
	}
	e.advance(historyEpochs - 1)
	if _, err := e.srv.PublishUpTo(clock()); err != nil {
		return err
	}
	e.history = e.arch.Labels()
	if len(e.history) != historyEpochs {
		return fmt.Errorf("history holds %d labels, want %d", len(e.history), historyEpochs)
	}
	// The known-good table is what the server acknowledged; a seeded
	// sample of it is checked against the server key here, and the
	// audit after the run compares the whole archive with it.
	for i := 0; i < 4; i++ {
		u, _ := e.arch.Get(e.history[e.rng.Intn(len(e.history))])
		if !sc.VerifyUpdate(e.spub, u) {
			return fmt.Errorf("acknowledged update %s fails verification", u.Label)
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.base = "http://" + ln.Addr().String()
	e.hs = timeserver.NewHTTPServer(handler, 0)
	e.served = make(chan error, 1)
	go func() { e.served <- e.hs.Serve(ln) }()
	return nil
}

// remember records an acknowledged update as known-good.
func (e *env) remember(u core.KeyUpdate) {
	enc := e.codec.MarshalKeyUpdate(u)
	e.knownMu.Lock()
	e.known[u.Label] = enc
	e.knownMu.Unlock()
}

// expect returns the known-good encoding of label.
func (e *env) expect(label string) ([]byte, bool) {
	e.knownMu.RLock()
	defer e.knownMu.RUnlock()
	b, ok := e.known[label]
	return b, ok
}

// sameAsKnown reports whether an update encodes to its known-good
// bytes.
func (e *env) sameAsKnown(u core.KeyUpdate) bool {
	want, ok := e.expect(u.Label)
	return ok && bytes.Equal(e.codec.MarshalKeyUpdate(u), want)
}

// corruptKnown applies faults.corruptExpected.
func (e *env) corruptKnown() {
	e.knownMu.Lock()
	defer e.knownMu.Unlock()
	for label, b := range e.known {
		c := append([]byte(nil), b...)
		c[len(c)-1] ^= 0x01
		e.known[label] = c
	}
}

// advance moves the virtual clock n epochs forward and returns it.
func (e *env) advance(n int) time.Time {
	return time.Unix(0, e.clock.Add(int64(n)*int64(epoch))).UTC()
}

// now is the virtual server time.
func (e *env) now() time.Time { return time.Unix(0, e.clock.Load()).UTC() }

// futureLabels are the n labels after the current epoch.
func (e *env) futureLabels(n int) []string {
	cur := e.sched.Index(e.now())
	out := make([]string, n)
	for i := range out {
		out[i] = e.sched.LabelAt(cur + 1 + int64(i))
	}
	return out
}

// newTransport returns a loopback transport limited to conns
// connections whose exchanges are timed into e.httpT.
func (e *env) newTransport(conns int) http.RoundTripper {
	return timedTransport{
		inner: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
		t:     &e.httpT,
	}
}

// mintTokens signs n fresh tokens directly with the issuance key,
// which yields exactly what blind issuance would, minus the blinding
// round trip. Seeds come from the workload seed.
func (e *env) mintTokens(n int) []token.Token {
	toks := make([]token.Token, n)
	for i := range toks {
		e.rng.Read(toks[i].Seed[:])
	}
	key := e.iss.Key()
	var wg sync.WaitGroup
	for w := 0; w < e.cfg.procs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += e.cfg.procs {
				toks[i].Sig = key.Sign(e.set, token.Domain, toks[i].Seed[:]).Point
			}
		}(w)
	}
	wg.Wait()
	return toks
}

// tokenHeader is the X-TRE-Token value for t.
func (e *env) tokenHeader(t token.Token) string {
	return base64.StdEncoding.EncodeToString(token.EncodeToken(e.codec, t))
}

// spendLogSize is the current size of the durable spend log.
func (e *env) spendLogSize() int64 {
	return fileSize(filepath.Join(e.dir, "ledger", token.SpendLogName))
}

// archiveSize is the current size of the durable update log.
func (e *env) archiveSize() int64 { return fileSize(e.arch.Path()) }

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// audit checks the durable logs after the run: every acknowledged
// publish must be in the archive with its known-good bytes, and the
// spend log must hold exactly the admitted spends, intact. It returns
// one error per finding.
func (e *env) audit(spends int64) []error {
	var errs []error
	verify := func(u core.KeyUpdate) bool { return e.sameAsKnown(u) }
	rep, err := archive.AuditDir(filepath.Join(e.dir, "archive"), e.codec, verify)
	if err != nil {
		return append(errs, fmt.Errorf("archive audit: %w", err))
	}
	if !rep.Clean() {
		errs = append(errs, fmt.Errorf("archive audit: torn=%v invalid=%d bad checkpoints=%d", rep.Torn, rep.Invalid, rep.CheckpointsBad))
	}
	e.knownMu.RLock()
	acked := len(e.known)
	e.knownMu.RUnlock()
	if len(rep.Records) != acked {
		errs = append(errs, fmt.Errorf("archive audit: %d records for %d acknowledged publishes", len(rep.Records), acked))
	}
	st, err := token.AuditSpendLog(filepath.Join(e.dir, "ledger"))
	if err != nil {
		return append(errs, fmt.Errorf("spend log audit: %w", err))
	}
	if st.Torn || st.Duplicates != 0 || int64(st.Records) != spends {
		errs = append(errs, fmt.Errorf("spend log audit: %d records (%d duplicate, torn=%v) for %d admitted spends", st.Records, st.Duplicates, st.Torn, spends))
	}
	return errs
}

// close stops the server, releases the logs and removes the directory.
func (e *env) close() {
	if e.hs != nil {
		e.srv.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := e.hs.Shutdown(ctx); err != nil {
			e.hs.Close()
		}
		cancel()
		if err := <-e.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
	}
	if e.arch != nil {
		e.arch.Close()
	}
	if e.ledger != nil {
		e.ledger.Close()
	}
	os.RemoveAll(e.dir)
}

// gatedGet sends one GET with an optional token and returns the status
// and body.
func (e *env) gatedGet(ctx context.Context, hc *http.Client, path, tok string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	if tok != "" {
		req.Header.Set(timeserver.TokenHeader, tok)
	}
	return do(hc, req)
}

// do sends req and reads the whole body.
func do(hc *http.Client, req *http.Request) (int, []byte, error) {
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, buf.Bytes(), nil
}
