package bls381

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"math/big"
	"os"
	"path/filepath"
	"testing"

	"timedrelease/internal/backend"
)

// TestExpandMessageXMDVectors pins the RFC 9380 expander against the
// appendix K.1 published vectors (SHA-256, both output lengths).
func TestExpandMessageXMDVectors(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "expand_message_xmd_sha256.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DST     string `json:"dst"`
		Vectors []struct {
			Msg          string `json:"msg"`
			LenInBytes   int    `json:"len_in_bytes"`
			UniformBytes string `json:"uniform_bytes"`
		} `json:"vectors"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Vectors) == 0 {
		t.Fatal("no vectors")
	}
	for _, v := range doc.Vectors {
		want, err := hex.DecodeString(v.UniformBytes)
		if err != nil {
			t.Fatal(err)
		}
		got := expandMessageXMD([]byte(v.Msg), doc.DST, v.LenInBytes)
		if !bytes.Equal(got, want) {
			t.Errorf("expand_message_xmd(%q, %d) = %x, want %x", v.Msg, v.LenInBytes, got, want)
		}
	}
}

// TestSerializationVectors pins the compressed zcash-format encodings
// of k·G1 and k·G2 against vectors computed by an independent affine
// big-integer implementation (testdata/serialization_vectors.json): a
// cross-implementation check of the whole scalar-multiplication,
// coordinate and serialization pipeline, including the k=1 standard
// generator encodings and both infinity encodings.
func TestSerializationVectors(t *testing.T) {
	initCtx()
	raw, err := os.ReadFile(filepath.Join("testdata", "serialization_vectors.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		InfinityG1 string `json:"infinity_g1"`
		InfinityG2 string `json:"infinity_g2"`
		Rows       []struct {
			Scalar string `json:"scalar"`
			G1     string `json:"g1"`
			G2     string `json:"g2"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Rows) == 0 {
		t.Fatal("no vectors")
	}

	inf1 := g1Infinity()
	if got := hex.EncodeToString(marshalG1(nil, &inf1)); got != doc.InfinityG1 {
		t.Errorf("G1 infinity encoding %s, want %s", got, doc.InfinityG1)
	}
	inf2 := g2Infinity()
	if got := hex.EncodeToString(marshalG2(nil, &inf2)); got != doc.InfinityG2 {
		t.Errorf("G2 infinity encoding %s, want %s", got, doc.InfinityG2)
	}

	for _, row := range doc.Rows {
		k, ok := new(big.Int).SetString(row.Scalar[2:], 16)
		if !ok {
			t.Fatalf("bad scalar %q", row.Scalar)
		}
		var j1 g1Jac
		j1.fromAffine(&ctx.g1)
		j1.scalarMult(&j1, k)
		p1 := j1.toAffine()
		if got := hex.EncodeToString(marshalG1(nil, &p1)); got != row.G1 {
			t.Errorf("k=%s: G1 encoding %s, want %s", row.Scalar, got, row.G1)
		}
		var j2 g2Jac
		j2.fromAffine(&ctx.g2)
		j2.scalarMult(&j2, k)
		p2 := j2.toAffine()
		if got := hex.EncodeToString(marshalG2(nil, &p2)); got != row.G2 {
			t.Errorf("k=%s: G2 encoding %s, want %s", row.Scalar, got, row.G2)
		}

		// Round trip through the decoders, which re-derive y from the
		// compressed x and the sign bit.
		enc1, err := hex.DecodeString(row.G1)
		if err != nil {
			t.Fatal(err)
		}
		back1, err := unmarshalG1(enc1)
		if err != nil {
			t.Fatalf("k=%s: unmarshalG1: %v", row.Scalar, err)
		}
		if !back1.equal(&p1) {
			t.Errorf("k=%s: G1 decode mismatch", row.Scalar)
		}
		enc2, err := hex.DecodeString(row.G2)
		if err != nil {
			t.Fatal(err)
		}
		back2, err := unmarshalG2(enc2)
		if err != nil {
			t.Fatalf("k=%s: unmarshalG2: %v", row.Scalar, err)
		}
		if !back2.equal(&p2) {
			t.Errorf("k=%s: G2 decode mismatch", row.Scalar)
		}
	}
}

// TestHashToG2Golden pins the compressed output of Backend.HashToG2 for
// the scheme's two H1 domains (time labels and token seeds) over empty,
// short, long, sub-second-label and 32-byte-seed messages. The vectors
// in testdata/h1_golden.json were produced by the original
// [h2]-ladder pipeline; every archive, signature, token and ciphertext
// depends on these bytes, so any rewrite of the map or of cofactor
// clearing must reproduce them exactly.
func TestHashToG2Golden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "h1_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Vectors []struct {
			Domain string `json:"domain"`
			Msg    string `json:"msg"`
			G2     string `json:"g2"`
		} `json:"vectors"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Vectors) < 16 {
		t.Fatalf("only %d vectors", len(doc.Vectors))
	}
	b := New()
	for _, v := range doc.Vectors {
		msg, err := hex.DecodeString(v.Msg)
		if err != nil {
			t.Fatal(err)
		}
		p := b.HashToG2(v.Domain, msg)
		if got := hex.EncodeToString(b.AppendPoint(nil, backend.G2, p)); got != v.G2 {
			t.Errorf("HashToG2(%q, %s) = %s, want %s", v.Domain, v.Msg, got, v.G2)
		}
	}
}
