package bench

import (
	"encoding/json"
	"fmt"
	"time"

	"timedrelease/internal/bls381"
	"timedrelease/internal/pairing"
	"timedrelease/internal/params"
)

// PairingRow holds one preset's timings of every Miller-loop evaluation
// strategy, in nanoseconds per operation. The speedups are relative to
// the affine reference loop — the implementation the repository shipped
// before the inversion-free rewrite — so they quantify exactly what the
// optimisation bought.
type PairingRow struct {
	Preset  string `json:"preset"`
	Backend string `json:"backend"` // "bigint" (reference), "montgomery" (fixed-limb) or "bls12381" (Type-3)
	PBits   int    `json:"p_bits"`
	QBits   int    `json:"q_bits"`
	Iters   int    `json:"iters"`

	AffineNS     int64 `json:"affine_ns"`     // reference: one F_p inversion per loop iteration
	ProjectiveNS int64 `json:"projective_ns"` // inversion-free Jacobian loop (Pair default)
	PrecomputeNS int64 `json:"precompute_ns"` // one-off cost of Precompute(P)
	PreparedNS   int64 `json:"prepared_ns"`   // PairPrepared with the schedule amortised away
	ProductNS    int64 `json:"product4_ns"`   // PairProduct over 4 pairs (shared final exp)
	VerifyNS     int64 `json:"bls_verify_ns"` // prepared-key BLS verification (2 Miller loops, 1 final exp)

	// Hash-to-G2 layers, BLS12-381 row only: the whole RFC 9380
	// pipeline (≈ 2 maps + 1 clearing), one SVDW map, and the cofactor
	// clearing of a sum of two map outputs.
	HashToG2NS      int64 `json:"hash_to_g2_ns,omitempty"`
	SvdwMapNS       int64 `json:"svdw_map_ns,omitempty"`
	ClearCofactorNS int64 `json:"clear_cofactor_ns,omitempty"`

	SpeedupProjective float64 `json:"speedup_projective"` // affine / projective
	SpeedupPrepared   float64 `json:"speedup_prepared"`   // affine / prepared

	// Allocation discipline of the steady-state paths (-benchmem style:
	// heap allocations and bytes per operation). The montgomery rows are
	// the ones the zero-alloc contract in docs/PERFORMANCE.md covers.
	ProjectiveAllocs int64 `json:"projective_allocs_per_op"`
	ProjectiveBytes  int64 `json:"projective_bytes_per_op"`
	PreparedAllocs   int64 `json:"prepared_allocs_per_op"`
	PreparedBytes    int64 `json:"prepared_bytes_per_op"`
}

// PairingReport is the JSON document `make bench-pairing` writes to
// BENCH_pairing.json.
type PairingReport struct {
	Description string       `json:"description"`
	Rows        []PairingRow `json:"rows"`
}

// RunPairing benchmarks the pairing evaluation strategies against the
// affine reference at each preset and returns both a machine-readable
// report and a rendered table.
func RunPairing(cfg Config) (*PairingReport, *Table, error) {
	names := []string{"Test160", "SS512", "BLS12-381"}
	if cfg.Quick {
		names = []string{"Test160"}
	}
	if cfg.Preset != "" {
		names = []string{cfg.Preset}
	}
	rep := &PairingReport{
		Description: "pairing evaluation strategies: Type-1 Tate rows vs their affine reference Miller loop (speedups are affine_ns / strategy_ns), plus the Type-3 BLS12-381 optimal ate row (no affine reference; zeros there)",
	}
	t := &Table{
		ID:    "PAIRING",
		Title: "Miller-loop strategies: affine reference vs inversion-free vs prepared",
		Claim: "the pairing dominates every protocol cost (§4); removing per-iteration inversions and precomputing fixed-argument line schedules attacks it directly",
		Columns: []string{
			"params", "affine", "projective", "prepared", "precompute", "product/4 pairs", "speedup (proj)", "speedup (prep)", "prep allocs/op", "prep B/op",
		},
	}

	for _, name := range names {
		set, err := params.Preset(name)
		if err != nil {
			return nil, nil, err
		}
		iters := cfg.iters(20)
		if set.Asymmetric() {
			row := pairingRowBLS(set, iters)
			rep.Rows = append(rep.Rows, row)
			t.Add(fmt.Sprintf("%s/%s (|p|=%d,|q|=%d)", set.Name, row.Backend, row.PBits, row.QBits),
				"n/a",
				nsDur(row.ProjectiveNS), nsDur(row.PreparedNS), nsDur(row.PrecomputeNS), nsDur(row.ProductNS),
				"n/a", "n/a",
				fmt.Sprintf("%d", row.PreparedAllocs), fmt.Sprintf("%d", row.PreparedBytes))
			continue
		}
		pr := set.Pairing
		c := set.Curve
		p := c.HashToGroup("bench-pairing", []byte("P"))
		q := c.HashToGroup("bench-pairing", []byte("Q"))
		prep := pr.Precompute(p)
		pairs := make([]pairing.PointPair, 4)
		for i := range pairs {
			pairs[i] = pairing.PointPair{
				P: c.HashToGroup("bench-pairing", []byte{byte(i)}),
				Q: c.HashToGroup("bench-pairing", []byte{byte(16 + i)}),
			}
		}

		var sink any
		affine := timeOp(iters, func() { sink = pr.PairAffine(p, q) })
		precompute := timeOp(iters, func() { sink = pr.Precompute(p) })
		_ = sink

		// One row per backend: "bigint" pins the reference code paths
		// (the implementation of record before the fixed-limb backend),
		// "montgomery" the routed defaults. Both are re-measured on the
		// same machine so the ablation is apples-to-apples.
		type backendOps struct {
			name       string
			projective func() any
			prepared   func() any
			product    func() any
			verify     func() bool
		}
		backends := []backendOps{
			{
				name:       "bigint",
				projective: func() any { return pr.PairBig(p, q) },
				prepared:   func() any { return pr.PairPreparedBig(prep, q) },
				product:    func() any { return pr.PairProductBig(pairs) },
				verify:     func() bool { return pr.SamePairingPreparedBig(prep, q, prep, q) },
			},
			{
				name:       "montgomery",
				projective: func() any { return pr.Pair(p, q) },
				prepared:   func() any { return pr.PairPrepared(prep, q) },
				product:    func() any { return pr.PairProduct(pairs) },
				verify:     func() bool { return pr.SamePairingPrepared(prep, q, prep, q) },
			},
		}
		for _, b := range backends {
			projective := timeOp(iters, func() { sink = b.projective() })
			prepared := timeOp(iters, func() { sink = b.prepared() })
			product := timeOp(iters, func() { sink = b.product() })
			verify := timeOp(iters, func() {
				if !b.verify() {
					panic("trivially equal pairings differ")
				}
			})
			projAllocs, projBytes := memPerOp(iters, func() { sink = b.projective() })
			prepAllocs, prepBytes := memPerOp(iters, func() { sink = b.prepared() })
			_ = sink

			row := PairingRow{
				Preset:            set.Name,
				Backend:           b.name,
				PBits:             set.P.BitLen(),
				QBits:             set.Q.BitLen(),
				Iters:             iters,
				AffineNS:          affine.Nanoseconds(),
				ProjectiveNS:      projective.Nanoseconds(),
				PrecomputeNS:      precompute.Nanoseconds(),
				PreparedNS:        prepared.Nanoseconds(),
				ProductNS:         product.Nanoseconds(),
				VerifyNS:          verify.Nanoseconds(),
				SpeedupProjective: float64(affine.Nanoseconds()) / float64(projective.Nanoseconds()),
				SpeedupPrepared:   float64(affine.Nanoseconds()) / float64(prepared.Nanoseconds()),
				ProjectiveAllocs:  projAllocs,
				ProjectiveBytes:   projBytes,
				PreparedAllocs:    prepAllocs,
				PreparedBytes:     prepBytes,
			}
			rep.Rows = append(rep.Rows, row)
			t.Add(fmt.Sprintf("%s/%s (|p|=%d,|q|=%d)", set.Name, b.name, row.PBits, row.QBits),
				ms(affine), ms(projective), ms(prepared), ms(precompute), ms(product),
				fmt.Sprintf("%.2fx", row.SpeedupProjective), fmt.Sprintf("%.2fx", row.SpeedupPrepared),
				fmt.Sprintf("%d", row.PreparedAllocs), fmt.Sprintf("%d", row.PreparedBytes))
		}
	}
	t.Note("affine = per-iteration field inversion (the pre-optimisation reference, kept as PairAffine); projective = Jacobian inversion-free loop (Pair)")
	t.Note("bigint rows pin the *Big reference methods; montgomery rows are the routed defaults on the fixed-limb backend")
	t.Note("prepared excludes the one-off Precompute cost (shown separately); it amortises after one reuse of the fixed argument")
	t.Note("product = PairProduct over 4 pairs: parallel Miller loops, one shared final exponentiation")
	t.Note("bls12381 rows time the Type-3 optimal ate pairing; the Tate affine reference loop does not exist there, so the affine column and the speedups are n/a (0 in the JSON)")
	t.Note("allocs/op and B/op are -benchmem-style means over the prepared path; the JSON also records the projective path's")
	t.Note("the bls12381 JSON row also times hash-to-G2 (hash_to_g2_ns ≈ 2·svdw_map_ns + clear_cofactor_ns); it is on the critical path of every update signature and verification")
	return rep, t, nil
}

// pairingRowBLS times the BLS12-381 optimal ate strategies via the
// backend's bench hooks. The affine reference loop is a Tate-pairing
// artifact with no Type-3 counterpart, so AffineNS and the speedup
// ratios stay zero.
func pairingRowBLS(set *params.Set, iters int) PairingRow {
	pairFull, pairPrep, precomp, product4, verify := bls381.BenchPairingOps()
	projective := timeOp(iters, pairFull)
	prepared := timeOp(iters, pairPrep)
	precompute := timeOp(iters, precomp)
	product := timeOp(iters, product4)
	verifyD := timeOp(iters, verify)
	projAllocs, projBytes := memPerOp(iters, pairFull)
	prepAllocs, prepBytes := memPerOp(iters, pairPrep)
	hash, svdw, clearing := bls381.BenchHashOps()
	hashD := timeOp(iters, hash)
	svdwD := timeOp(iters, svdw)
	clearD := timeOp(iters, clearing)
	return PairingRow{
		Preset:           set.Name,
		Backend:          "bls12381",
		PBits:            set.P.BitLen(),
		QBits:            set.Q.BitLen(),
		Iters:            iters,
		ProjectiveNS:     projective.Nanoseconds(),
		PrecomputeNS:     precompute.Nanoseconds(),
		PreparedNS:       prepared.Nanoseconds(),
		ProductNS:        product.Nanoseconds(),
		VerifyNS:         verifyD.Nanoseconds(),
		HashToG2NS:       hashD.Nanoseconds(),
		SvdwMapNS:        svdwD.Nanoseconds(),
		ClearCofactorNS:  clearD.Nanoseconds(),
		ProjectiveAllocs: projAllocs,
		ProjectiveBytes:  projBytes,
		PreparedAllocs:   prepAllocs,
		PreparedBytes:    prepBytes,
	}
}

// nsDur renders a nanosecond count the way ms renders a Duration.
func nsDur(ns int64) string { return ms(time.Duration(ns)) }

// JSON renders the report with stable indentation for check-in.
func (r *PairingReport) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
