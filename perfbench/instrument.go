package main

import (
	"io"
	"math/big"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"timedrelease/internal/archive"
	"timedrelease/internal/backend"
	"timedrelease/internal/core"
	"timedrelease/internal/curve"
)

// tally is one decorated operation's call count, work count (pairings
// for the pairing methods, calls otherwise) and busy time.
type tally struct {
	calls atomic.Int64
	work  atomic.Int64
	ns    atomic.Int64
}

// add records one finished call that did work units of work.
// A zero start means tracing was off when the call began.
func (t *tally) add(start time.Time, work int64) {
	if start.IsZero() {
		return
	}
	t.calls.Add(1)
	t.work.Add(work)
	t.ns.Add(int64(time.Since(start)))
}

// tallyView is a plain copy of a tally, subtractable between two
// points of a run.
type tallyView struct{ calls, work, ns int64 }

func (t *tally) view() tallyView {
	return tallyView{t.calls.Load(), t.work.Load(), t.ns.Load()}
}

func (a tallyView) sub(b tallyView) tallyView {
	return tallyView{a.calls - b.calls, a.work - b.work, a.ns - b.ns}
}

// backendTallies are the layer counters a tracedBackend fills. The
// group layer is hash-to-G2, scalar multiplication, point decoding and
// subgroup checks; the pairing layer is every pairing evaluation plus
// target-group exponentiation.
type backendTallies struct {
	on                                     *atomic.Bool
	hashToG2, scalarMult, decode, subgroup tally
	pair, product, same, prepared, prepare tally
	gtExp                                  tally
	// aggregate counts the prepared aggregate-signature checks (also
	// counted in prepared).
	aggregate tally
}

// now starts a timed call, or returns the zero time while tracing is
// off.
func (t *backendTallies) now() time.Time {
	if t.on.Load() {
		return time.Now()
	}
	return time.Time{}
}

// tracedBackend decorates a backend.Backend with per-method call counts
// and busy time. Methods it does not override pass straight through.
type tracedBackend struct {
	backend.Backend
	t *backendTallies
}

func (b tracedBackend) HashToG2(domain string, msg []byte) curve.Point {
	defer b.t.hashToG2.add(b.t.now(), 1)
	return b.Backend.HashToG2(domain, msg)
}

func (b tracedBackend) ScalarMult(g backend.Group, k *big.Int, p curve.Point) curve.Point {
	defer b.t.scalarMult.add(b.t.now(), 1)
	return b.Backend.ScalarMult(g, k, p)
}

func (b tracedBackend) ScalarMultBase(tb backend.BaseTable, k *big.Int) curve.Point {
	defer b.t.scalarMult.add(b.t.now(), 1)
	return b.Backend.ScalarMultBase(tb, k)
}

func (b tracedBackend) ParsePoint(g backend.Group, data []byte) (curve.Point, error) {
	defer b.t.decode.add(b.t.now(), 1)
	return b.Backend.ParsePoint(g, data)
}

func (b tracedBackend) InSubgroup(g backend.Group, p curve.Point) bool {
	defer b.t.subgroup.add(b.t.now(), 1)
	return b.Backend.InSubgroup(g, p)
}

func (b tracedBackend) Pair(p, q curve.Point) backend.GT {
	defer b.t.pair.add(b.t.now(), 1)
	return b.Backend.Pair(p, q)
}

func (b tracedBackend) PairProduct(pairs []backend.PointPair) backend.GT {
	defer b.t.product.add(b.t.now(), int64(len(pairs)))
	return b.Backend.PairProduct(pairs)
}

func (b tracedBackend) SamePairing(a1, b1, a2, b2 curve.Point) bool {
	defer b.t.same.add(b.t.now(), 2)
	return b.Backend.SamePairing(a1, b1, a2, b2)
}

func (b tracedBackend) GTExpUnitary(a backend.GT, k *big.Int) backend.GT {
	defer b.t.gtExp.add(b.t.now(), 1)
	return b.Backend.GTExpUnitary(a, k)
}

func (b tracedBackend) PrepareKey(g, sg, sg2 curve.Point) backend.PreparedKey {
	defer b.t.prepare.add(b.t.now(), 1)
	return tracedPreparedKey{b.Backend.PrepareKey(g, sg, sg2), b.t}
}

// tracedPreparedKey counts the prepared-key checks; each evaluates a
// two-pairing equation.
type tracedPreparedKey struct {
	backend.PreparedKey
	t *backendTallies
}

func (k tracedPreparedKey) VerifySig(h, sig curve.Point) bool {
	defer k.t.prepared.add(k.t.now(), 2)
	return k.PreparedKey.VerifySig(h, sig)
}

func (k tracedPreparedKey) SameKey(ag, asg curve.Point) bool {
	defer k.t.prepared.add(k.t.now(), 2)
	return k.PreparedKey.SameKey(ag, asg)
}

func (k tracedPreparedKey) VerifyAggregate(hashes []curve.Point, agg curve.Point) bool {
	start := k.t.now()
	defer k.t.aggregate.add(start, 1)
	defer k.t.prepared.add(start, 2)
	return k.PreparedKey.VerifyAggregate(hashes, agg)
}

func (k tracedPreparedKey) PairCheck(h, sig curve.Point) bool {
	defer k.t.prepared.add(k.t.now(), 2)
	return k.PreparedKey.PairCheck(h, sig)
}

// backendView is a snapshot of backendTallies.
type backendView struct {
	hashToG2, scalarMult, decode, subgroup tallyView
	pair, product, same, prepared, prepare tallyView
	gtExp, aggregate                       tallyView
}

func (t *backendTallies) view() backendView {
	if t == nil {
		return backendView{}
	}
	return backendView{
		hashToG2: t.hashToG2.view(), scalarMult: t.scalarMult.view(),
		decode: t.decode.view(), subgroup: t.subgroup.view(),
		pair: t.pair.view(), product: t.product.view(), same: t.same.view(),
		prepared: t.prepared.view(), prepare: t.prepare.view(), gtExp: t.gtExp.view(),
		aggregate: t.aggregate.view(),
	}
}

func (a backendView) sub(b backendView) backendView {
	return backendView{
		hashToG2: a.hashToG2.sub(b.hashToG2), scalarMult: a.scalarMult.sub(b.scalarMult),
		decode: a.decode.sub(b.decode), subgroup: a.subgroup.sub(b.subgroup),
		pair: a.pair.sub(b.pair), product: a.product.sub(b.product), same: a.same.sub(b.same),
		prepared: a.prepared.sub(b.prepared), prepare: a.prepare.sub(b.prepare), gtExp: a.gtExp.sub(b.gtExp),
		aggregate: a.aggregate.sub(b.aggregate),
	}
}

// pairings is the number of pairing evaluations, counted the way
// core.Scheme counts them: one per Pair, one per product factor and
// two per two-sided check.
func (a backendView) pairings() int64 {
	return a.pair.work + a.product.work + a.same.work + a.prepared.work
}

// pairingTime is the busy time of every pairing evaluation.
func (a backendView) pairingTime() int64 {
	return a.pair.ns + a.product.ns + a.same.ns + a.prepared.ns
}

// groupTime is the busy time of the group layer.
func (a backendView) groupTime() int64 {
	return a.hashToG2.ns + a.scalarMult.ns + a.decode.ns + a.subgroup.ns
}

// archiveTallies are the storage-layer counters of a tracedArchive.
type archiveTallies struct {
	on          *atomic.Bool
	put, rangeQ tally
	// putNS keeps every append's duration for the p50/p99.
	putNS samples
}

// tracedArchive decorates the durable archive handed to
// timeserver.WithArchive. It keeps the Range fast path visible, so the
// server serves pages exactly as it would from the bare *archive.Log.
// onPut sees every acknowledged update.
type tracedArchive struct {
	inner interface {
		archive.Archive
		archive.Ranger
	}
	t     *archiveTallies
	onPut func(core.KeyUpdate)
}

func (a *tracedArchive) Put(u core.KeyUpdate) error {
	start := time.Now()
	if err := a.inner.Put(u); err != nil {
		return err
	}
	if a.t.on.Load() {
		a.t.put.add(start, 1)
		a.t.putNS.add(time.Since(start))
	}
	a.onPut(u)
	return nil
}

func (a *tracedArchive) Get(label string) (core.KeyUpdate, bool) { return a.inner.Get(label) }
func (a *tracedArchive) Labels() []string                        { return a.inner.Labels() }
func (a *tracedArchive) Len() int                                { return a.inner.Len() }

func (a *tracedArchive) Range(from, to string, limit int) (archive.RangeResult, error) {
	start := time.Time{}
	if a.t.on.Load() {
		start = time.Now()
	}
	defer a.t.rangeQ.add(start, 1)
	return a.inner.Range(from, to, limit)
}

// timedTransport times every HTTP exchange a client makes, from
// sending the request to closing the response body, which is the
// request layer as the client sees it. Each exchange goes to the
// tally and, as a span, to the operation carried by the request's
// context, if any.
type timedTransport struct {
	inner http.RoundTripper
	t     *tally
}

func (c timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := c.inner.RoundTrip(r)
	if err != nil {
		c.done(r, start)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() { c.done(r, start) }}
	return resp, nil
}

func (c timedTransport) done(r *http.Request, start time.Time) {
	end := time.Now()
	d := end.Sub(start)
	c.t.calls.Add(1)
	c.t.ns.Add(int64(d))
	if op := spanOf(r.Context()); op != nil {
		op.http.Add(int64(d))
		op.child("http", start, end)
	}
}

// timedBody reports the end of an exchange once, when the body is
// closed.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}
