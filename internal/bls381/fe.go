// Package bls381 is a from-scratch implementation of the BLS12-381
// pairing-friendly curve: the base field tower Fp → Fp2 → Fp6 → Fp12,
// the groups G1 (over Fp) and G2 (over Fp2, on the sextic M-twist),
// the optimal-ate Miller loop with the BLS final exponentiation, and
// the RFC 9380 hash-to-curve pipeline used to map time labels into G2.
//
// It is a Type-3 (asymmetric) backend for the timed-release scheme: the
// paper's supersingular Type-1 curves stay available as the reference
// backends, while this curve provides ~128-bit security with pairings
// that are an order of magnitude faster than SS1024.
//
// The field arithmetic runs on the repo's fixed-limb Montgomery
// machinery (internal/ff.Mont, 6×64-bit limbs for the 381-bit prime);
// nothing here depends on third-party crypto libraries. Like the rest
// of the repository this code is NOT constant time (see README threat
// model): exponent ladders branch on bits and reductions branch on
// comparisons.
package bls381

import (
	"math/big"
	"sync"

	"timedrelease/internal/ff"
)

// Curve constants. x is the BLS parameter: p and r are polynomials in
// x, which is why the Miller loop and the final exponentiation both
// walk |x|'s bits. All hex values are pinned by TestCurveConstants
// against their defining polynomial identities.
const (
	// pHex is the 381-bit base field prime p = (x−1)²·(x⁴−x²+1)/3 + x.
	pHex = "1a0111ea397fe69a4b1ba7b6434bacd764774b84f38512bf6730d2a0f6b0f6241eabfffeb153ffffb9feffffffffaaab"
	// rHex is the 255-bit subgroup order r = x⁴ − x² + 1.
	rHex = "73eda753299d7d483339d80809a1d80553bda402fffe5bfeffffffff00000001"
	// xAbsHex is |x| for the (negative) BLS parameter x = −2^63 − 2^62 − 2^60 − 2^57 − 2^48 − 2^16.
	xAbsHex = "d201000000010000"
	// h1Hex is the G1 cofactor (p + 1 − t)/r with trace t = x + 1.
	h1Hex = "396c8c005555e1568c00aaab0000aaab"
	// h2Hex is the G2 cofactor: #E'(Fp2)/r for the M-twist.
	h2Hex = "5d543a95414e7f1091d50792876a202cd91de4547085abaa68a205b2e5a7ddfa628f1cb4d9e82ef21537e293a6691ae1616ec6e786f0c70cf1c38e31c7238e5"
)

// feLimbs is the limb count for the 381-bit prime; fe is sized to it so
// elements live inline in structs and on the stack, not behind slices.
const feLimbs = 6

// feByteLen is the big-endian serialized size of one Fp element.
const feByteLen = 48

// fe is one Fp element in Montgomery form (little-endian limbs). The
// zero value is the field's zero. Arithmetic delegates to the shared
// ff.Mont context via z[:] slice views, which stay on the stack.
type fe [feLimbs]uint64

// ctx holds the lazily built package-level arithmetic context: the
// Montgomery machinery plus every derived constant (tower frobenius
// coefficients, SVDW map constants, generators). Building it costs a
// few big.Int exponentiations and happens once per process.
var ctx struct {
	once sync.Once

	p, r, xAbs *big.Int
	h1, h2     *big.Int

	fp   *ff.Field
	mnt  *ff.Mont
	half fe // 1/2

	// Window schedules for the two fixed exponents every inversion,
	// square root and residue test runs: p−2 (Fermat inverse) and
	// (p−3)/4, from which p ≡ 3 (mod 4) gives both the root
	// x^((p+1)/4) = x·x^((p−3)/4) and Euler's criterion
	// x^((p−1)/2) = x·(x^((p−3)/4))².
	invPlan, p34Plan expPlan

	// Frobenius: w^p = γ1·w with γ1 = ξ^((p−1)/6), so v^p = γ1²·v and
	// (v²)^p = γ1⁴·v².
	gamma1, gamma2, gamma4 fe2
	// ψ (untwist-Frobenius-twist) coefficients γ1⁻², γ1⁻³.
	psiX, psiY fe2

	// SVDW map-to-curve constants for E'(Fp2) with Z = −1 (svdwZ).
	svdwZ, svdwC1, svdwC2, svdwC3, svdwC4 fe2

	// cInvD0 is the low base-|x| digit of c⁻¹ mod r for the cofactor
	// ratio c = 3(x²−1) = h_eff/h2 (see clearCofactor).
	cInvD0 *big.Int

	g1 g1Affine
	g2 g2Affine
}

func initCtx() {
	ctx.once.Do(func() {
		fromHex := func(s string) *big.Int {
			n, ok := new(big.Int).SetString(s, 16)
			if !ok {
				panic("bls381: bad constant")
			}
			return n
		}
		ctx.p = fromHex(pHex)
		ctx.r = fromHex(rHex)
		ctx.xAbs = fromHex(xAbsHex)
		ctx.h1 = fromHex(h1Hex)
		ctx.h2 = fromHex(h2Hex)

		fp, err := ff.NewField(ctx.p)
		if err != nil {
			panic("bls381: field: " + err.Error())
		}
		ctx.fp = fp
		ctx.mnt = fp.Mont()
		if ctx.mnt == nil || ctx.mnt.Limbs() != feLimbs {
			panic("bls381: Montgomery backend unavailable for p")
		}

		initFeArith()

		ctx.invPlan = newExpPlan(new(big.Int).Sub(ctx.p, big.NewInt(2)))
		ctx.p34Plan = newExpPlan(new(big.Int).Rsh(new(big.Int).Sub(ctx.p, big.NewInt(3)), 2))

		two := big.NewInt(2)
		halfBig := new(big.Int).ModInverse(two, ctx.p)
		ctx.half.fromBig(halfBig)

		initTowerConstants()
		initGenerators()
		initSVDW()
		initCofactor()
	})
}

// --- fe helpers -----------------------------------------------------

func (z *fe) set(x *fe)    { *z = *x }
func (z *fe) setZero()     { *z = fe{} }
func (z *fe) setOne()      { ctx.mnt.SetOne(z[:]) }
func (z *fe) isZero() bool { return ctx.mnt.IsZero(z[:]) }
func (z *fe) isOne() bool  { return ctx.mnt.IsOne(z[:]) }
func (z *fe) equal(x *fe) bool {
	return ctx.mnt.Equal(z[:], x[:])
}

func (z *fe) add(x, y *fe) { feAdd(z, x, y) }
func (z *fe) dbl(x *fe)    { feDouble(z, x) }
func (z *fe) sub(x, y *fe) { feSub(z, x, y) }
func (z *fe) neg(x *fe)    { feNeg(z, x) }
func (z *fe) mul(x, y *fe) { feMul(z, x, y) }
func (z *fe) sqr(x *fe)    { feSqr(z, x) }

// expWindow is the sliding-window width of the fixed-exponent
// schedules: 16 odd powers x, x³, …, x³¹ cost one squaring and 15
// products, after which a 381-bit exponent needs ~380 squarings and
// ~64 products (~460 operations against ~570 for square-and-multiply).
const expWindow = 5

// expStep squares the accumulator sqr times, then multiplies it by the
// odd power x^(2·idx+1) from the window table.
type expStep struct {
	sqr uint16
	idx uint8
}

// expPlan is the left-to-right sliding-window schedule of one fixed
// public exponent: the accumulator starts at the first step's table
// entry, runs the remaining steps, then squares tail more times. The
// schedule depends only on the exponent, never on the base.
type expPlan struct {
	steps []expStep
	tail  int
}

// newExpPlan builds the width-expWindow schedule of e > 0.
func newExpPlan(e *big.Int) expPlan {
	var plan expPlan
	pending := 0 // squarings owed since the last window
	for i := e.BitLen() - 1; i >= 0; {
		if e.Bit(i) == 0 {
			pending++
			i--
			continue
		}
		j := i - expWindow + 1
		if j < 0 {
			j = 0
		}
		for e.Bit(j) == 0 {
			j++
		}
		v := 0
		for k := i; k >= j; k-- {
			v = v<<1 | int(e.Bit(k))
		}
		plan.steps = append(plan.steps, expStep{sqr: uint16(pending + i - j + 1), idx: uint8(v >> 1)})
		pending = 0
		i = j - 1
	}
	plan.tail = pending
	return plan
}

// expFixed sets z = x^e for the exponent the plan was built from.
func (z *fe) expFixed(x *fe, plan *expPlan) {
	var tbl [1 << (expWindow - 1)]fe
	var x2 fe
	tbl[0] = *x
	feSqr(&x2, x)
	for i := 1; i < len(tbl); i++ {
		feMul(&tbl[i], &tbl[i-1], &x2)
	}
	acc := tbl[plan.steps[0].idx]
	for _, st := range plan.steps[1:] {
		for k := uint16(0); k < st.sqr; k++ {
			feSqr(&acc, &acc)
		}
		feMul(&acc, &acc, &tbl[st.idx])
	}
	for k := 0; k < plan.tail; k++ {
		feSqr(&acc, &acc)
	}
	*z = acc
}

// inv is the Fermat inverse x^(p−2); panics on zero like ff.Mont.Inv.
func (z *fe) inv(x *fe) {
	if x.isZero() {
		panic("bls381: inverse of zero")
	}
	z.expFixed(x, &ctx.invPlan)
}

// expP34 sets z = x^((p−3)/4). For a nonzero square x this is 1/√x
// for the root √x = x·z that sqrt returns, and z²·x is Euler's
// criterion x^((p−1)/2) for every x, so one power serves as both
// residue test and root.
func (z *fe) expP34(x *fe) { z.expFixed(x, &ctx.p34Plan) }

// fromBig loads a (not necessarily reduced) big.Int into Montgomery form.
func (z *fe) fromBig(x *big.Int) {
	v := x
	if v.Sign() < 0 || v.Cmp(ctx.p) >= 0 {
		v = new(big.Int).Mod(x, ctx.p)
	}
	ctx.mnt.ToMont(z[:], v)
}

// toBig returns the plain (non-Montgomery) integer value.
func (z *fe) toBig() *big.Int {
	return ctx.mnt.FromMont(nil, z[:])
}

// sqrt sets z = √x = x^((p+1)/4) for p ≡ 3 (mod 4) and reports
// success; on failure z is unspecified.
func (z *fe) sqrt(x *fe) bool {
	var c, t fe
	c.expP34(x)
	c.mul(&c, x)
	t.sqr(&c)
	if !t.equal(x) {
		return false
	}
	z.set(&c)
	return true
}

// sgn0 is the RFC 9380 sign of an Fp element: its parity as a plain
// integer.
func (z *fe) sgn0() uint64 {
	var plain big.Int
	ctx.mnt.FromMont(&plain, z[:])
	return uint64(plain.Bit(0))
}

// bytes appends the 48-byte big-endian encoding of z to dst.
func (z *fe) bytes(dst []byte) []byte {
	var plain big.Int
	ctx.mnt.FromMont(&plain, z[:])
	var buf [feByteLen]byte
	plain.FillBytes(buf[:])
	return append(dst, buf[:]...)
}

// feFromBytes parses a canonical 48-byte big-endian Fp element,
// rejecting values ≥ p.
func feFromBytes(b []byte) (fe, bool) {
	var z fe
	if len(b) != feByteLen {
		return z, false
	}
	v := new(big.Int).SetBytes(b)
	if v.Cmp(ctx.p) >= 0 {
		return z, false
	}
	ctx.mnt.ToMont(z[:], v)
	return z, true
}
