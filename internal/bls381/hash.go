package bls381

import (
	"crypto/sha256"
	"math/big"
)

// RFC 9380 hash-to-curve for G2. The expand_message_xmd expander and
// the hash_to_field layer follow the RFC exactly (and are pinned by the
// appendix K.1 golden vectors in testdata/). The curve map is the
// Shallue–van de Woestijne map of §6.6.1 rather than the
// 3-isogeny-based SSWU of the ciphersuite registry: SVDW needs no
// isogeny constants, works directly on y² = x³ + 4(1+i), and the RFC
// defines it as a first-class map. The resulting suite is
// BLS12381G2_XMD:SHA-256_SVDW_RO_ — deterministic and uniform, but NOT
// the registered _SSWU_ ciphersuite, so cross-implementation label
// hashes differ by design (docs/BACKENDS.md records this trade-off).

const expandLenInBytes = 256 // count=2 · m=2 · L=64

// expandMessageXMD is expand_message_xmd(msg, dst, len) with SHA-256.
func expandMessageXMD(msg []byte, dst string, outLen int) []byte {
	const bLen = sha256.Size // 32
	const sLen = 64          // SHA-256 block size
	ell := (outLen + bLen - 1) / bLen
	if ell > 255 || len(dst) > 255 {
		panic("bls381: expand_message_xmd parameter overflow")
	}
	dstPrime := append([]byte(dst), byte(len(dst)))

	h := sha256.New()
	var zPad [sLen]byte
	h.Write(zPad[:])
	h.Write(msg)
	h.Write([]byte{byte(outLen >> 8), byte(outLen)})
	h.Write([]byte{0})
	h.Write(dstPrime)
	b0 := h.Sum(nil)

	out := make([]byte, 0, ell*bLen)
	bi := make([]byte, bLen)
	for i := 1; i <= ell; i++ {
		h.Reset()
		if i == 1 {
			h.Write(b0)
		} else {
			x := make([]byte, bLen)
			for j := range x {
				x[j] = b0[j] ^ bi[j]
			}
			h.Write(x)
		}
		h.Write([]byte{byte(i)})
		h.Write(dstPrime)
		bi = h.Sum(nil)
		out = append(out, bi...)
	}
	return out[:outLen]
}

// hashToFieldFp2 is hash_to_field with m = 2, count = 2, L = 64.
func hashToFieldFp2(msg []byte, dst string) (u0, u1 fe2) {
	initCtx()
	uniform := expandMessageXMD(msg, dst, expandLenInBytes)
	const L = 64
	take := func(i int) *big.Int {
		v := new(big.Int).SetBytes(uniform[i*L : (i+1)*L])
		return v.Mod(v, ctx.p)
	}
	u0.c0.fromBig(take(0))
	u0.c1.fromBig(take(1))
	u1.c0.fromBig(take(2))
	u1.c1.fromBig(take(3))
	return u0, u1
}

// svdwMapJac is the straight-line Shallue–van de Woestijne map of
// RFC 9380 §6.6.1 for E'(Fp2) (A = 0, B = 4+4i, Z = −1). Output is on
// the twist but NOT yet in G2; callers clear the cofactor.
//
// It runs without a single inversion. The RFC's inv0(tv1·tv2) is kept
// as a fraction conj(tv1·tv2)/m over the norm m ∈ Fp, so x1 and x2 are
// X/m and x3 is X/m²; each candidate is tried with sqrtScaled, which
// fails after one Fp power when g(x) is not a square and otherwise
// returns the affine y (needed for the sign) from a second one. That
// is 2 powers when x1 succeeds, 3 for x2, 4 for x3. The point comes
// back in Jacobian form (X·k : y·k³ : k) for the denominator k.
func svdwMapJac(u *fe2) g2Jac {
	initCtx()
	var one fe2
	one.setOne()

	var tv1, tv2, tv3, tv4 fe2
	tv1.sqr(u)
	tv1.mul(&tv1, &ctx.svdwC1)
	tv2.add(&one, &tv1)
	tv1.sub(&one, &tv1)
	tv3.mul(&tv1, &tv2)
	// inv0(tv3) = conj(tv3)/m with m = N(tv3); the exceptional
	// tv3 = 0 maps through zero (inv0(0) = 0) with m = 1.
	var m fe
	m.sqr(&tv3.c0)
	var t fe
	t.sqr(&tv3.c1)
	m.add(&m, &t)
	if m.isZero() {
		m.setOne()
	} else {
		tv3.conj(&tv3)
	}
	tv4.mul(u, &tv1)
	tv4.mul(&tv4, &tv3)
	tv4.mul(&tv4, &ctx.svdwC3) // RFC tv4 = this/m

	var x, v, y fe2
	var k fe
	var c2m fe2
	c2m.mulByFe(&ctx.svdwC2, &m)
	x.sub(&c2m, &tv4) // x1 = x/m
	k = m
	twistRHS(&v, &x, &k)
	if !y.sqrtScaled(&v, &k) {
		x.add(&c2m, &tv4) // x2 = x/m
		twistRHS(&v, &x, &k)
		if !y.sqrtScaled(&v, &k) {
			// x3 = Z + c4·(tv2²·inv0(tv1·tv2))² = x/m².
			x.sqr(&tv2)
			x.mul(&x, &tv3)
			x.sqr(&x)
			x.mul(&x, &ctx.svdwC4)
			k.sqr(&m)
			var zk fe2
			zk.mulByFe(&ctx.svdwZ, &k)
			x.add(&x, &zk)
			twistRHS(&v, &x, &k)
			if !y.sqrtScaled(&v, &k) {
				panic("bls381: svdw produced a non-square g(x)")
			}
		}
	}
	if u.sgn0() != y.sgn0() {
		y.neg(&y)
	}
	var k3 fe
	k3.sqr(&k)
	k3.mul(&k3, &k)
	var j g2Jac
	j.x.mulByFe(&x, &k)
	j.y.mulByFe(&y, &k3)
	j.z.c0 = k
	return j
}

// twistRHS sets v = g(x/k)·k⁴ = (x³ + B·k³)·k, the right-hand side of
// the twist at x/k scaled so that sqrtScaled(v, k) yields the affine y.
func twistRHS(v, x *fe2, k *fe) {
	var k3 fe
	k3.sqr(k)
	k3.mul(&k3, k)
	b := twistB()
	b.mulByFe(&b, &k3)
	v.sqr(x)
	v.mul(v, x)
	v.add(v, &b)
	v.mulByFe(v, k)
}

// hashToG2 is the full random-oracle construction: two field elements,
// two curve mappings, one Jacobian addition, one cofactor clearing —
// and a single inversion, for the final affine output.
func hashToG2(msg []byte, dst string) g2Affine {
	u0, u1 := hashToFieldFp2(msg, dst)
	p0 := svdwMapJac(&u0)
	p1 := svdwMapJac(&u1)
	p0.add(&p0, &p1)
	return clearCofactor(&p0)
}
