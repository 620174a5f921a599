package bls381

import "math/big"

// Benchmark hooks: the field and pairing internals are unexported (the
// only supported API is the backend.Backend), but internal/bench needs
// to time the raw operations for BENCH_field.json and
// BENCH_pairing.json. These constructors hand it closures over live
// operands without widening the package surface.

// BenchFieldOps returns closures timing one base-field multiplication,
// squaring and inversion on fixed non-trivial operands. Operands stay
// in Montgomery form across calls, matching how the pairing uses the
// field.
func BenchFieldOps() (mul, sqr, inv func()) {
	initCtx()
	var a, b, r fe
	a.fromBig(new(big.Int).SetBytes([]byte("bls381 bench operand a")))
	b.fromBig(new(big.Int).SetBytes([]byte("bls381 bench operand b")))
	mul = func() { r.mul(&a, &b) }
	sqr = func() { r.sqr(&a) }
	inv = func() { r.inv(&a) }
	return mul, sqr, inv
}

// benchG1 derives a non-trivial G1 point as k·G1 (there is no hash-to-G1
// in this implementation; only G2 carries hashed labels).
func benchG1(k int64) *g1Affine {
	var j g1Jac
	j.fromAffine(&ctx.g1)
	j.scalarMult(&j, big.NewInt(k))
	p := j.toAffine()
	return &p
}

// BenchPairingOps returns closures timing the ate pairing strategies on
// fixed arguments: the full pairing, the Miller loop with a precomputed
// G2 line schedule, the one-off schedule precomputation itself, a
// 4-pair product (shared final exponentiation) and a two-pairing
// equality check (the verification shape).
func BenchPairingOps() (pairFull, pairWithPrep, precompute, product4, verify func()) {
	initCtx()
	p := benchG1(0x6265_6e63)
	q := hashToG2([]byte("Q"), "bls381-bench-pairing")
	prep := prepareG2(&q)
	ps := make([]*g1Affine, 4)
	qs := make([]*g2Prepared, 4)
	for i := range ps {
		ps[i] = benchG1(int64(1000 + i))
		h := hashToG2([]byte{byte(16 + i)}, "bls381-bench-pairing")
		qs[i] = prepareG2(&h)
	}
	var sink fe12
	pairFull = func() { sink = pair(p, &q) }
	pairWithPrep = func() { sink = pairPrepared(p, prep) }
	precompute = func() { prep = prepareG2(&q) }
	product4 = func() { sink = pairProduct(ps, qs) }
	verify = func() {
		if !samePairing(p, prep, p, prep) {
			panic("bls381: trivially equal pairings differ")
		}
	}
	_ = sink
	return pairFull, pairWithPrep, precompute, product4, verify
}

// BenchHashOps returns closures timing the hash-to-G2 layers on a fixed
// time label: the whole RFC 9380 pipeline, one SVDW map, and the
// cofactor clearing of a sum of two map outputs (the shape the
// pipeline clears).
func BenchHashOps() (hash, svdw, clearing func()) {
	initCtx()
	msg := []byte("2026-01-01T00:00:00Z")
	const dst = "bls381-bench-hash"
	u0, u1 := hashToFieldFp2(msg, dst)
	sum := svdwMapJac(&u0)
	p1 := svdwMapJac(&u1)
	sum.add(&sum, &p1)
	var sink g2Affine
	var sinkJ g2Jac
	hash = func() { sink = hashToG2(msg, dst) }
	svdw = func() { sinkJ = svdwMapJac(&u0) }
	clearing = func() { sink = clearCofactor(&sum) }
	_, _ = sink, sinkJ
	return hash, svdw, clearing
}
