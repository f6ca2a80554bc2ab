package serve

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"silvervale/internal/tree"
)

// fuzzPayload builds a matrix payload from fuzz input: names split on '|'
// give the app, metric, order and units keys (odd bytes included); shape
// selects nil or empty top-level fields; data supplies the matrix as raw
// float64 bit patterns (extreme magnitudes, subnormals, -0, NaN, ±Inf)
// over rows of varying length, some nil or empty, and the fingerprints.
func fuzzPayload(names string, data []byte, shape uint8) *MatrixPayload {
	parts := strings.Split(names, "|")
	at := func(i int) string { return parts[i%len(parts)] }
	p := &MatrixPayload{App: at(0), Metric: at(1)}
	if shape&1 == 0 {
		p.Order = append([]string{}, parts...)
	}
	word := func() uint64 {
		var w [8]byte
		n := copy(w[:], data)
		data = data[n:]
		return binary.LittleEndian.Uint64(w[:])
	}
	if shape&2 == 0 {
		p.Matrix = [][]float64{}
		for r := 0; len(data) > 0; r++ {
			n := int(data[0]) % 5
			data = data[1:]
			switch {
			case n == 4 && r%2 == 1:
				p.Matrix = append(p.Matrix, nil)
			case n == 4:
				p.Matrix = append(p.Matrix, []float64{})
			default:
				row := make([]float64, 0, n+1)
				for k := 0; k <= n && len(data) > 0; k++ {
					row = append(row, math.Float64frombits(word()))
				}
				p.Matrix = append(p.Matrix, row)
			}
		}
	}
	if shape&4 == 0 {
		p.Units = map[string][]UnitFingerprint{}
		for i, k := range parts {
			switch i % 3 {
			case 1:
				p.Units[k] = nil
			case 2:
				p.Units[k] = []UnitFingerprint{}
			default:
				h := word()
				p.Units[k] = append(p.Units[k],
					UnitFingerprint{File: at(i + 1), Role: at(i + 2), Fingerprint: Fingerprint{H1: h, H2: ^h, Size: uint32(h >> 7)}},
					UnitFingerprint{File: k, Role: "", Fingerprint: Fingerprint{}})
			}
		}
	}
	return p
}

// FuzzMatrixJSON pins the matrix writer to encoding/json: on every payload
// WriteJSON must produce encodeIndented's bytes exactly, and on a NaN or
// infinite entry both must fail with the same error and WriteJSON must
// write nothing.
func FuzzMatrixJSON(f *testing.F) {
	f64 := func(vs ...float64) []byte { // one single-entry row per value
		var b []byte
		for _, v := range vs {
			b = append(b, 0)
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add("babelstream|tsem|serial|omp|cuda", f64(0, 0.5, 1.25, 1e-7, 1e21, 123456789.125), uint8(0))
	f.Add("a<b>&c|\u2028\u2029|\x00\x1f\t\n\r\b\f|\"\\|\xff\xfeok|é", f64(math.Copysign(0, -1), 5e-324, math.MaxFloat64, -1e-6, 1e20, 999999999999999999999.0), uint8(0))
	f.Add("x", f64(math.NaN()), uint8(0))
	f.Add("x|y", f64(1, math.Inf(-1)), uint8(0))
	f.Add("", []byte{4, 4, 0, 1, 2}, uint8(0))
	f.Add("only|names", []byte{}, uint8(7))
	f.Add("m|n", f64(2.5e-8, 3e300), uint8(5))
	f.Fuzz(func(t *testing.T, names string, data []byte, shape uint8) {
		p := fuzzPayload(names, data, shape)
		var want, got bytes.Buffer
		wantErr := encodeIndented(&want, p)
		gotErr := p.WriteJSON(&got)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("error parity: encodeIndented %v, WriteJSON %v", wantErr, gotErr)
		}
		if wantErr != nil {
			if wantErr.Error() != gotErr.Error() {
				t.Fatalf("error text: encodeIndented %q, WriteJSON %q", wantErr, gotErr)
			}
			if got.Len() != 0 {
				t.Fatalf("WriteJSON wrote %d bytes before failing", got.Len())
			}
			return
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("WriteJSON differs from encodeIndented:\ngot:  %q\nwant: %q", got.Bytes(), want.Bytes())
		}
	})
}

// TestFingerprintTextRoundTrip pins the payload fingerprint's text form to
// tree.Fingerprint.String and checks that it decodes back to the value.
func TestFingerprintTextRoundTrip(t *testing.T) {
	for _, fp := range []Fingerprint{{}, {H1: 1, H2: 2, Size: 3}, {H1: math.MaxUint64, H2: 0xabcdef, Size: math.MaxUint32}} {
		text, err := fp.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		if want := tree.Fingerprint(fp).String(); string(text) != want {
			t.Fatalf("MarshalText = %q, String = %q", text, want)
		}
		var back Fingerprint
		if err := back.UnmarshalText(text); err != nil || back != fp {
			t.Fatalf("UnmarshalText(%q) = %+v, %v; want %+v", text, back, err, fp)
		}
	}
	for _, bad := range []string{"", "00:1", strings.Repeat("g", 32) + ":1", strings.Repeat("0", 32) + "-1", strings.Repeat("0", 32) + ":x"} {
		var f Fingerprint
		if err := f.UnmarshalText([]byte(bad)); err == nil {
			t.Errorf("UnmarshalText(%q) accepted a malformed fingerprint", bad)
		}
	}
}
