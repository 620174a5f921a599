package bls381

import (
	"math/big"
	"testing"
)

// Reference implementations: the straightforward formulas the hash
// pipeline used before its inversion-free rewrite, kept as oracles for
// the differential tests and FuzzHashToG2. They exponentiate with
// plain square-and-multiply on math/big exponents.

func refExp(x *fe, e *big.Int) fe {
	var acc fe
	acc.setOne()
	for i := e.BitLen() - 1; i >= 0; i-- {
		acc.sqr(&acc)
		if e.Bit(i) == 1 {
			acc.mul(&acc, x)
		}
	}
	return acc
}

// refIsResidue is Euler's criterion x^((p−1)/2) = 1 (true for zero).
func refIsResidue(x *fe) bool {
	if x.isZero() {
		return true
	}
	e := new(big.Int).Rsh(new(big.Int).Sub(ctx.p, big.NewInt(1)), 1)
	t := refExp(x, e)
	return t.isOne()
}

// refSqrt is x^((p+1)/4), checked by squaring.
func refSqrt(z, x *fe) bool {
	e := new(big.Int).Rsh(new(big.Int).Add(ctx.p, big.NewInt(1)), 2)
	c := refExp(x, e)
	var t fe
	t.sqr(&c)
	if !t.equal(x) {
		return false
	}
	z.set(&c)
	return true
}

func refInv(z, x *fe) {
	*z = refExp(x, new(big.Int).Sub(ctx.p, big.NewInt(2)))
}

// refFe2IsResidue tests the norm with Euler's criterion.
func refFe2IsResidue(x *fe2) bool {
	var n, t fe
	n.sqr(&x.c0)
	t.sqr(&x.c1)
	n.add(&n, &t)
	return refIsResidue(&n)
}

// refFe2Sqrt is the four-power Fp2 square root: norm root, residue
// test of d, root of d, inverse of 2·x0.
func refFe2Sqrt(z, x *fe2) bool {
	if x.isZero() {
		z.setZero()
		return true
	}
	var n, t, d, x0, x1 fe
	n.sqr(&x.c0)
	t.sqr(&x.c1)
	n.add(&n, &t)
	if !refSqrt(&n, &n) {
		return false
	}
	d.add(&x.c0, &n)
	d.mul(&d, &ctx.half)
	if !refIsResidue(&d) {
		d.sub(&x.c0, &n)
		d.mul(&d, &ctx.half)
	}
	if !refSqrt(&x0, &d) {
		return false
	}
	if x0.isZero() {
		if !x.c1.isZero() {
			return false
		}
		var m fe
		m.neg(&x.c0)
		if !refSqrt(&x1, &m) {
			return false
		}
		z.c0.setZero()
		z.c1.set(&x1)
		return true
	}
	t.dbl(&x0)
	refInv(&t, &t)
	x1.mul(&x.c1, &t)
	var c, s fe2
	c.c0.set(&x0)
	c.c1.set(&x1)
	s.sqr(&c)
	if !s.equal(x) {
		return false
	}
	z.set(&c)
	return true
}

// svdwMapRef is the affine RFC 9380 §6.6.1 map with an explicit
// inversion and the reference residue tests and square root. It also
// reports which candidate it chose: 0, 1 or 2 for x1, x2 or x3.
func svdwMapRef(u *fe2) (g2Affine, int) {
	one := fe2{}
	one.setOne()
	b := twistB()

	var tv1, tv2, tv3, tv4 fe2
	tv1.sqr(u)
	tv1.mul(&tv1, &ctx.svdwC1)
	tv2.add(&one, &tv1)
	tv1.sub(&one, &tv1)
	tv3.mul(&tv1, &tv2)
	if tv3.isZero() {
		tv3.setZero()
	} else {
		var n, t fe
		n.sqr(&tv3.c0)
		t.sqr(&tv3.c1)
		n.add(&n, &t)
		refInv(&n, &n)
		tv3.conj(&tv3)
		tv3.mulByFe(&tv3, &n)
	}
	tv4.mul(u, &tv1)
	tv4.mul(&tv4, &tv3)
	tv4.mul(&tv4, &ctx.svdwC3)

	var x1, gx1 fe2
	x1.sub(&ctx.svdwC2, &tv4)
	gx1.sqr(&x1)
	gx1.mul(&gx1, &x1)
	gx1.add(&gx1, &b)
	e1 := refFe2IsResidue(&gx1)

	var x2, gx2 fe2
	x2.add(&ctx.svdwC2, &tv4)
	gx2.sqr(&x2)
	gx2.mul(&gx2, &x2)
	gx2.add(&gx2, &b)
	e2 := refFe2IsResidue(&gx2) && !e1

	var x3 fe2
	x3.sqr(&tv2)
	x3.mul(&x3, &tv3)
	x3.sqr(&x3)
	x3.mul(&x3, &ctx.svdwC4)
	x3.add(&x3, &ctx.svdwZ)

	var x fe2
	x.set(&x3)
	branch := 2
	if e1 {
		x.set(&x1)
		branch = 0
	} else if e2 {
		x.set(&x2)
		branch = 1
	}
	var gx, y fe2
	gx.sqr(&x)
	gx.mul(&gx, &x)
	gx.add(&gx, &b)
	if !refFe2Sqrt(&y, &gx) {
		panic("bls381: reference svdw produced a non-square g(x)")
	}
	if u.sgn0() != y.sgn0() {
		y.neg(&y)
	}
	return g2Affine{x: x, y: y}, branch
}

// clearCofactorRef is the definitional clearing: the generic windowed
// ladder by the 507-bit twist cofactor h2.
func clearCofactorRef(q *g2Affine) g2Affine {
	var j g2Jac
	j.fromAffine(q)
	j.scalarMult(&j, ctx.h2)
	return j.toAffine()
}

// hashToG2Ref is the whole pipeline on the reference pieces.
func hashToG2Ref(msg []byte, dst string) g2Affine {
	u0, u1 := hashToFieldFp2(msg, dst)
	p0, _ := svdwMapRef(&u0)
	p1, _ := svdwMapRef(&u1)
	var j g2Jac
	j.fromAffine(&p0)
	j.addAffine(&j, &p1)
	sum := j.toAffine()
	return clearCofactorRef(&sum)
}

// svdwMap is the affine view of svdwMapJac.
func svdwMap(u *fe2) g2Affine {
	j := svdwMapJac(u)
	return j.toAffine()
}

// refU derives a deterministic field element for test case i.
func refU(i int) fe2 {
	u0, _ := hashToFieldFp2([]byte{byte(i), byte(i >> 8)}, "bls381-test-ref-u")
	return u0
}

func TestCofactorConstants(t *testing.T) {
	initCtx()
	// h_eff = 3(x²−1)·h2 exactly (RFC 9380 §8.8.2 effective cofactor).
	hEff := mustBig("bc69f08f2ee75b3584c6a0ea91b352888e2a8e9145ad7689986ff031508ffe1329c2f178731db956d82bf015d1212b02ec0ec69d7477c1ae954cbc06689f6a359894c0adebbf6b4e8020005aaa95551")
	c := new(big.Int).Mul(ctx.xAbs, ctx.xAbs)
	c.Sub(c, big.NewInt(1))
	c.Mul(c, big.NewInt(3))
	if new(big.Int).Mul(c, ctx.h2).Cmp(hEff) != 0 {
		t.Fatal("h_eff != 3(x²−1)·h2")
	}
	// c⁻¹ mod r has base-|x| digits (d0, 2d0−1, 2d0−2, d0−1), d0 = (|x|+1)/3.
	d0 := ctx.cInvD0
	if want := new(big.Int).Div(new(big.Int).Add(ctx.xAbs, big.NewInt(1)), big.NewInt(3)); d0.Cmp(want) != 0 {
		t.Fatalf("d0 = %x, want (|x|+1)/3 = %x", d0, want)
	}
	two := big.NewInt(2)
	digits := []*big.Int{
		d0,
		new(big.Int).Sub(new(big.Int).Mul(two, d0), big.NewInt(1)),
		new(big.Int).Sub(new(big.Int).Mul(two, d0), two),
		new(big.Int).Sub(d0, big.NewInt(1)),
	}
	sum := new(big.Int)
	for i := len(digits) - 1; i >= 0; i-- {
		sum.Mul(sum, ctx.xAbs)
		sum.Add(sum, digits[i])
	}
	if new(big.Int).Mul(sum, c).Mod(new(big.Int).Mul(sum, c), ctx.r).Cmp(big.NewInt(1)) != 0 {
		t.Fatal("digits do not encode c⁻¹ mod r")
	}
}

// TestClearCofactorMatchesLadder runs the ψ-based clearing against the
// [h2] ladder on twist points outside G2: raw SVDW outputs, sums of two
// of them (the shape hashToG2 clears), a point of G2 and infinity.
func TestClearCofactorMatchesLadder(t *testing.T) {
	initCtx()
	check := func(name string, q *g2Affine) {
		t.Helper()
		var j g2Jac
		j.fromAffine(q)
		got := clearCofactor(&j)
		want := clearCofactorRef(q)
		if !got.equal(&want) {
			t.Fatalf("%s: ψ clearing != [h2] ladder", name)
		}
		if !got.isInfinity() && (!got.isOnCurve() || !got.inSubgroup()) {
			t.Fatalf("%s: cleared point not in G2", name)
		}
	}
	outside := 0
	for i := 0; i < 120; i++ {
		u := refU(i)
		p := svdwMap(&u)
		if !p.inSubgroup() {
			outside++
		}
		check("svdw", &p)
		v := refU(1000 + i)
		q := svdwMap(&v)
		var j g2Jac
		j.fromAffine(&p)
		j.addAffine(&j, &q)
		s := j.toAffine()
		check("svdw sum", &s)
	}
	if outside < 100 {
		t.Fatalf("only %d of 120 test points lie outside G2", outside)
	}
	inf := g2Infinity()
	check("infinity", &inf)
	check("generator", &ctx.g2)
	// A Jacobian input with Z ≠ 1 (the form hashToG2 hands over).
	u, v := refU(7), refU(8)
	j0, j1 := svdwMapJac(&u), svdwMapJac(&v)
	j0.add(&j0, &j1)
	sum := j0.toAffine()
	got := clearCofactor(&j0)
	if want := clearCofactorRef(&sum); !got.equal(&want) {
		t.Fatal("Jacobian input: ψ clearing != [h2] ladder")
	}
}

// TestSvdwMapMatchesReference pins the inversion-free map against the
// affine RFC formulas, including the exceptional inputs where
// tv1·tv2 = 0 (u²·c1 = ±1) and u = 0, and covering all three
// candidate branches.
func TestSvdwMapMatchesReference(t *testing.T) {
	initCtx()
	us := make([]fe2, 0, 200)
	for i := 0; i < 200; i++ {
		us = append(us, refU(5000+i))
	}
	us = append(us, fe2{})
	for _, sign := range []int64{1, -1} {
		// u² = ±1/c1 makes tv1 or tv2 vanish.
		var s, c1inv fe2
		c1inv.inv(&ctx.svdwC1)
		s.fromBig(big.NewInt(sign), big.NewInt(0))
		s.mul(&s, &c1inv)
		var u fe2
		if u.sqrt(&s) {
			us = append(us, u)
		}
	}
	exceptional := 0
	branch := [3]int{}
	for _, u := range us {
		got := svdwMap(&u)
		want, b := svdwMapRef(&u)
		if !got.equal(&want) {
			t.Fatalf("svdw(%v) differs from the reference map", u.toRef())
		}
		if !got.isOnCurve() {
			t.Fatal("svdw output off curve")
		}
		var tv1, one, tv2 fe2
		one.setOne()
		tv1.sqr(&u)
		tv1.mul(&tv1, &ctx.svdwC1)
		tv2.add(&one, &tv1)
		tv1.sub(&one, &tv1)
		tv1.mul(&tv1, &tv2)
		if tv1.isZero() {
			exceptional++
		}
		branch[b]++
	}
	if exceptional == 0 {
		t.Fatal("no exceptional input exercised")
	}
	for i, n := range branch {
		if n == 0 {
			t.Fatalf("candidate x%d never chosen", i+1)
		}
	}
}

// TestFp2SqrtMatchesReference checks the two-power square root, whose
// success is the residue test, against the four-power formulas and
// Euler's criterion on squares, non-squares
// and the c1 = 0 and x0 = 0 branches. The two may return opposite
// roots when d is not a square (every caller fixes the sign itself),
// so roots are compared up to sign, and exactly where d is a square.
func TestFp2SqrtMatchesReference(t *testing.T) {
	initCtx()
	var cases []fe2
	for i := 0; i < 60; i++ {
		a := refU(9000 + i)
		var sq fe2
		sq.sqr(&a)
		cases = append(cases, a, sq)
		// c1 = 0: both a square and a non-square real.
		cases = append(cases, fe2{c0: a.c0}, fe2{c0: sq.c0})
		var n fe2
		n.c0.neg(&sq.c0)
		cases = append(cases, n) // x0 = 0 branch: −c0 a square
	}
	cases = append(cases, fe2{})
	var one fe2
	one.setOne()
	cases = append(cases, one)
	var mOne fe2
	mOne.neg(&one)
	cases = append(cases, mOne) // √−1 = i: d = 0
	var k fe
	k.fromBig(big.NewInt(0x5eed))
	squares := 0
	for _, x := range cases {
		var got, want fe2
		okGot := got.sqrt(&x)
		okWant := refFe2Sqrt(&want, &x)
		if okGot != okWant || okGot != refFe2IsResidue(&x) {
			t.Fatalf("sqrt(%v) ok = %v, want %v", x.toRef(), okGot, okWant)
		}
		if !okGot {
			continue
		}
		squares++
		var neg fe2
		neg.neg(&want)
		if !got.equal(&want) && !got.equal(&neg) {
			t.Fatalf("sqrt(%v) is not ± the reference root", x.toRef())
		}
		// Scaled form: √(v/k⁴) with v = x·k⁴ is ± the same root.
		var k4 fe
		k4.sqr(&k)
		k4.sqr(&k4)
		var v, scaled fe2
		v.mulByFe(&x, &k4)
		if !scaled.sqrtScaled(&v, &k) {
			t.Fatalf("sqrtScaled failed on a square %v", x.toRef())
		}
		if !scaled.equal(&got) && !scaled.equal(&neg) {
			t.Fatalf("sqrtScaled(%v) is not ± the reference root", x.toRef())
		}
	}
	if squares < 60 || squares == len(cases) {
		t.Fatalf("unbalanced cases: %d squares of %d", squares, len(cases))
	}
}

// TestFeFixedExponents pins the windowed inversion and root against
// plain square-and-multiply and Euler's criterion.
func TestFeFixedExponents(t *testing.T) {
	initCtx()
	for i := 0; i < 40; i++ {
		x := refU(12000 + i).c0
		var got, want fe
		got.inv(&x)
		refInv(&want, &x)
		if !got.equal(&want) {
			t.Fatal("inv differs from x^(p−2)")
		}
		okGot, okWant := got.sqrt(&x), refSqrt(&want, &x)
		if okGot != okWant || okGot != refIsResidue(&x) || okGot && !got.equal(&want) {
			t.Fatal("sqrt differs from x^((p+1)/4)")
		}
	}
}

// TestHashToG2MatchesReference compares whole pipelines.
func TestHashToG2MatchesReference(t *testing.T) {
	for i := 0; i < 8; i++ {
		msg := []byte{byte(i), 0x42}
		got := hashToG2(msg, "bls381-test-ref")
		want := hashToG2Ref(msg, "bls381-test-ref")
		if !got.equal(&want) {
			t.Fatalf("hashToG2(%x) differs from the reference pipeline", msg)
		}
	}
}

// FuzzHashToG2 hashes attacker-chosen messages (token seeds reach this
// hash straight from the client) and checks the fast pipeline against
// the reference one: same point, on the twist, in G2.
func FuzzHashToG2(f *testing.F) {
	f.Add([]byte{}, "time-label")
	f.Add([]byte("2026-01-01T00:00:00Z"), "time-label")
	f.Add(make([]byte, 32), "access-token")
	f.Fuzz(func(t *testing.T, msg []byte, domain string) {
		if len(msg) > 512 || len(domain) > 64 {
			return
		}
		initCtx()
		dst := dstPrefix + domain + dstSuffix
		got := hashToG2(msg, dst)
		if got.isInfinity() || !got.isOnCurve() || !got.inSubgroup() {
			t.Fatal("hash output not a non-identity point of G2")
		}
		want := hashToG2Ref(msg, dst)
		if !got.equal(&want) {
			t.Fatalf("hashToG2(%x, %q) differs from the reference pipeline", msg, domain)
		}
	})
}
