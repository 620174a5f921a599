package bls381

import "math/big"

// fe2 is an element of Fp2 = Fp[i]/(i²+1), stored as c0 + c1·i. The
// tower continues with the non-residue ξ = 1 + i: Fp6 = Fp2[v]/(v³−ξ)
// and Fp12 = Fp6[w]/(w²−v). The zero value is zero.
type fe2 struct {
	c0, c1 fe
}

func (z *fe2) set(x *fe2)   { *z = *x }
func (z *fe2) setZero()     { *z = fe2{} }
func (z *fe2) setOne()      { z.c0.setOne(); z.c1.setZero() }
func (z *fe2) isZero() bool { return z.c0.isZero() && z.c1.isZero() }
func (z *fe2) isOne() bool  { return z.c0.isOne() && z.c1.isZero() }
func (z *fe2) equal(x *fe2) bool {
	return z.c0.equal(&x.c0) && z.c1.equal(&x.c1)
}

func (z *fe2) add(x, y *fe2) {
	z.c0.add(&x.c0, &y.c0)
	z.c1.add(&x.c1, &y.c1)
}

func (z *fe2) dbl(x *fe2) {
	z.c0.dbl(&x.c0)
	z.c1.dbl(&x.c1)
}

func (z *fe2) sub(x, y *fe2) {
	z.c0.sub(&x.c0, &y.c0)
	z.c1.sub(&x.c1, &y.c1)
}

func (z *fe2) neg(x *fe2) {
	z.c0.neg(&x.c0)
	z.c1.neg(&x.c1)
}

// conj sets z = x̄ = c0 − c1·i, which is also x^p (the Fp2 Frobenius).
func (z *fe2) conj(x *fe2) {
	z.c0.set(&x.c0)
	z.c1.neg(&x.c1)
}

// mul is the Karatsuba product: 3 base-field multiplications.
func (z *fe2) mul(x, y *fe2) {
	var t0, t1, t2, t3 fe
	t0.mul(&x.c0, &y.c0)
	t1.mul(&x.c1, &y.c1)
	t2.add(&x.c0, &x.c1)
	t3.add(&y.c0, &y.c1)
	t2.mul(&t2, &t3)
	t2.sub(&t2, &t0)
	z.c1.sub(&t2, &t1) // x0y1 + x1y0
	z.c0.sub(&t0, &t1) // x0y0 − x1y1
}

// sqr is the complex squaring: (c0+c1)(c0−c1) and 2·c0·c1.
func (z *fe2) sqr(x *fe2) {
	var t0, t1, t2 fe
	t0.add(&x.c0, &x.c1)
	t1.sub(&x.c0, &x.c1)
	t2.dbl(&x.c0)
	z.c0.mul(&t0, &t1)
	z.c1.mul(&t2, &x.c1)
}

// mulByFe scales both coordinates by a base-field element.
func (z *fe2) mulByFe(x *fe2, k *fe) {
	z.c0.mul(&x.c0, k)
	z.c1.mul(&x.c1, k)
}

// mulByNonRes multiplies by the sextic non-residue ξ = 1 + i:
// (c0 + c1 i)(1 + i) = (c0 − c1) + (c0 + c1)i.
func (z *fe2) mulByNonRes(x *fe2) {
	var t0 fe
	t0.sub(&x.c0, &x.c1)
	z.c1.add(&x.c0, &x.c1)
	z.c0.set(&t0)
}

// inv sets z = x⁻¹ via the norm: (c0 − c1 i)/(c0² + c1²). Panics on
// zero, matching the base field.
func (z *fe2) inv(x *fe2) {
	var n, t fe
	n.sqr(&x.c0)
	t.sqr(&x.c1)
	n.add(&n, &t)
	n.inv(&n)
	z.c0.mul(&x.c0, &n)
	n.neg(&n)
	z.c1.mul(&x.c1, &n)
}

// exp is plain square-and-multiply; used only for one-time constant
// derivation, never on the pairing hot path.
func (z *fe2) exp(x *fe2, e *big.Int) {
	var acc, base fe2
	base.set(x)
	acc.setOne()
	for i := e.BitLen() - 1; i >= 0; i-- {
		acc.sqr(&acc)
		if e.Bit(i) == 1 {
			acc.mul(&acc, &base)
		}
	}
	z.set(&acc)
}

// sqrt sets z = √x for p ≡ 3 (mod 4) and reports success. Writes z
// only on success; z may alias x.
func (z *fe2) sqrt(x *fe2) bool {
	var one fe
	one.setOne()
	return z.sqrtScaled(x, &one)
}

// sqrtScaled sets z = √w for w = v/k⁴ (k ∈ Fp nonzero) without
// inverting k, and reports whether w is a square. It costs two Fp
// powers t^((p−3)/4), and only one when w is not a square. A caller
// holding x = X/k on a curve y² = g(x) gets the affine y from
// v = g(X/k)·k⁴ with no inversion at all.
//
// The root is the classical one for p ≡ 3 (mod 4): with the norm root
// n = √(c0² + c1²) and d = (c0 + n)/2, w = (x0 + x1·i)² for x0 = √d
// and x1 = c1/(2·x0) when d is a square; otherwise c1 ≠ 0, the other
// half-sum (c0 − n)/2 = −c1²/(4d) is the square, and −i times the same
// formula is the root. Raising t·k⁸ instead of t to (p−3)/4 multiplies
// the power by k⁻⁴, since k^(8·(p−3)/4) = k^(2(p−1))·k⁻⁴, which moves
// the scale out with no inversion. For a square d, s = d^((p−3)/4)
// gives both √d = s·d and 1/√d = s, so x1 needs no inversion either.
// Writes z only on success; z may alias v.
func (z *fe2) sqrtScaled(v *fe2, k *fe) bool {
	var k2, k4, k8 fe
	k2.sqr(k)
	k4.sqr(&k2)
	k8.sqr(&k4)

	// Norm: e = (N(v)·k⁸)^((p−3)/4) = N(v)^((p−3)/4)·k⁻⁴, so the
	// norm root of w is n = N(v)·e and N(v) is a square iff e²·N(v)·k⁸
	// is one (or N(v) = 0).
	var nv, t, e, n fe
	nv.sqr(&v.c0)
	t.sqr(&v.c1)
	nv.add(&nv, &t)
	t.mul(&nv, &k8)
	e.expP34(&t)
	if !nv.isZero() {
		var chi fe
		chi.sqr(&e)
		chi.mul(&chi, &t)
		if !chi.isOne() {
			return false
		}
	}
	n.mul(&nv, &e)

	// dk = d·k⁴ = (v.c0 + n·k⁴)/2.
	var dk, s fe
	dk.mul(&n, &k4)
	dk.add(&dk, &v.c0)
	dk.mul(&dk, &ctx.half)
	var root fe2
	if dk.isZero() {
		// d = 0 happens only for c1 = 0 with −c0 a square; the root is
		// i·√(−c0), and m·((m·k⁸)^((p−3)/4))·k² = √(m/k⁴) for m = −v.c0.
		if !v.c1.isZero() {
			return false
		}
		var m fe
		m.neg(&v.c0)
		t.mul(&m, &k8)
		s.expP34(&t)
		root.c1.mul(&m, &s)
		root.c1.mul(&root.c1, &k2)
	} else {
		// s = ((d·k⁴)·k⁸)^((p−3)/4) = d^((p−3)/4)·k⁻⁶, so
		// x0 = d^((p+1)/4) = dk·s·k² and x1 = c1/(2·x0) = (v.c1/2)·s·k².
		t.mul(&dk, &k8)
		s.expP34(&t)
		var chi, sk2, a, b fe
		chi.sqr(&s)
		chi.mul(&chi, &t)
		sk2.mul(&s, &k2)
		a.mul(&dk, &sk2)
		b.mul(&v.c1, &ctx.half)
		b.mul(&b, &sk2)
		if chi.isOne() {
			root.c0, root.c1 = a, b
		} else {
			// d is not a square: (x0 + x1·i)·(−i) = x1 − x0·i.
			root.c0 = b
			root.c1.neg(&a)
		}
	}
	// Verify root²·k⁴ = v; guards against non-square inputs.
	var chk fe2
	chk.sqr(&root)
	chk.mulByFe(&chk, &k4)
	if !chk.equal(v) {
		return false
	}
	z.set(&root)
	return true
}

// sgn0 is the RFC 9380 sign of an Fp2 element (§4.1, m = 2).
func (z *fe2) sgn0() uint64 {
	s0 := z.c0.sgn0()
	if z.c0.isZero() {
		return z.c1.sgn0()
	}
	return s0
}

func (z *fe2) fromBig(a, b *big.Int) {
	z.c0.fromBig(a)
	z.c1.fromBig(b)
}

func (z *fe2) fromUint64(a, b uint64) {
	z.fromBig(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
}
