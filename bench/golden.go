package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
)

// Golden digests of the outputs the workloads check, pinned when the
// benchmark was introduced. A change that alters any of them changed the
// numbers the program produces, and every operation that reproduces the
// output counts as failed.
const (
	goldenTealeafTsem     = "0291fb13f45edc9f199f6fc70ae6bb89"
	goldenFortranTsem     = "b7b80cba4d0ca27ab63f6fb0a608bc08"
	goldenTealeafChart    = "0212e8d9d7688ba35cfdf1de20384d86"
	goldenBabelstreamTsem = "38393362f8359bb56f75482397645bcb"
)

// matrixDigest hashes the model order and the exact bit pattern of every
// matrix cell.
func matrixDigest(order []string, m [][]float64) string {
	h := sha256.New()
	for _, o := range order {
		h.Write([]byte(o))
		h.Write([]byte{0})
	}
	var b [8]byte
	for _, row := range m {
		for _, v := range row {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// bytesDigest hashes a rendered output.
func bytesDigest(p []byte) string {
	s := sha256.Sum256(p)
	return hex.EncodeToString(s[:])[:32]
}

// sameBits reports whether two matrices are bit-identical.
func sameBits(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// checkGolden compares output digests (name -> {got, golden}) and fails
// the operation once if any differs.
func checkGolden(res *result, op string, outputs map[string][2]string) {
	var bad []string
	for _, name := range sortedKeys(outputs) {
		if d := outputs[name]; d[0] != d[1] {
			bad = append(bad, fmt.Sprintf("%s digest %s, golden %q", name, d[0], d[1]))
		}
	}
	if len(bad) > 0 {
		res.fail("%s: %v", op, bad)
	}
}
