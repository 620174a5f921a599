package bls381

import (
	"testing"
)

func BenchmarkPairing(b *testing.B) {
	initCtx()
	p := randG1(b)
	q := randG2(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pair(&p, &q)
	}
}

func BenchmarkPairingPrepared(b *testing.B) {
	initCtx()
	p := randG1(b)
	q := randG2(b)
	pq := prepareG2(&q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pairPrepared(&p, pq)
	}
}

func BenchmarkG1ScalarMult(b *testing.B) {
	initCtx()
	k := randScalarT(b)
	var j g1Jac
	j.fromAffine(&ctx.g1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.scalarMult(&j, k)
	}
}

func BenchmarkHashToG2(b *testing.B) {
	initCtx()
	msg := []byte("2026-01-01T00:00:00Z")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = hashToG2(msg, "bench-dst")
	}
}

func BenchmarkFeMul(b *testing.B) {
	initCtx()
	x := randFe(b)
	y := randFe(b)
	var z fe
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feMul(&z, &x, &y)
	}
}

func BenchmarkFeMulLoop(b *testing.B) {
	initCtx()
	x := randFe(b)
	y := randFe(b)
	var z fe
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feMulLoop(&z, &x, &y)
	}
}

func BenchmarkSvdwMap(b *testing.B) {
	initCtx()
	u, _ := hashToFieldFp2([]byte("2026-01-01T00:00:00Z"), "bench-dst")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = svdwMapJac(&u)
	}
}

func BenchmarkClearCofactor(b *testing.B) {
	initCtx()
	u0, u1 := hashToFieldFp2([]byte("2026-01-01T00:00:00Z"), "bench-dst")
	p := svdwMapJac(&u0)
	q := svdwMapJac(&u1)
	p.add(&p, &q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = clearCofactor(&p)
	}
}

func BenchmarkG2InSubgroup(b *testing.B) {
	initCtx()
	q := randG2(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !q.inSubgroup() {
			b.Fatal("generator multiple outside G2")
		}
	}
}

func BenchmarkFeInv(b *testing.B) {
	initCtx()
	x := randFe(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.inv(&x)
	}
}
