package serve

import (
	"encoding/json"
	"io"
	"math"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"unicode/utf8"

	"silvervale/internal/tree"
)

// The matrix payload is the one response every warm matrix read renders,
// so it has its own writer: it appends the indented JSON straight into a
// pooled buffer instead of marshalling compact output and re-scanning it
// to indent. The bytes are exactly encodeIndented's — same field order,
// same two-space indentation, same float and string rules — which
// FuzzMatrixJSON and the CLI/serve cross-checks pin against
// encodeIndented itself. Nothing rendered is kept between calls.

// renderBuf is one pooled rendering: the output bytes and the sorted
// model names of the units map.
type renderBuf struct {
	b    []byte
	keys []string
}

var renderPool = sync.Pool{New: func() any { return new(renderBuf) }}

// WriteJSON writes the payload as encodeIndented would, in one Write. A
// NaN or infinite matrix entry is an error, as it is for encoding/json,
// and then nothing is written.
func (p *MatrixPayload) WriteJSON(w io.Writer) error {
	rb := renderPool.Get().(*renderBuf)
	defer renderPool.Put(rb)
	b, err := p.appendJSON(rb, rb.b[:0])
	rb.b = b[:0]
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// appendJSON appends the indented payload and its trailing newline to b.
func (p *MatrixPayload) appendJSON(rb *renderBuf, b []byte) ([]byte, error) {
	b = append(b, "{\n  \"app\": "...)
	b = appendString(b, p.App)
	b = append(b, ",\n  \"metric\": "...)
	b = appendString(b, p.Metric)
	b = append(b, ",\n  \"order\": "...)
	b = appendStrings(b, p.Order)
	b = append(b, ",\n  \"matrix\": "...)
	b, err := appendMatrix(b, p.Matrix)
	if err != nil {
		return b, err
	}
	b = append(b, ",\n  \"units\": "...)
	b = p.appendUnits(rb, b)
	return append(b, "\n}\n"...), nil
}

// newline starts a new line indented to depth levels of two spaces.
func newline(b []byte, depth int) []byte {
	b = append(b, '\n')
	for i := 0; i < depth; i++ {
		b = append(b, "  "...)
	}
	return b
}

// appendStrings renders the top-level "order" array.
func appendStrings(b []byte, ss []string) []byte {
	if ss == nil {
		return append(b, "null"...)
	}
	if len(ss) == 0 {
		return append(b, "[]"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = newline(b, 2)
		b = appendString(b, s)
	}
	b = newline(b, 1)
	return append(b, ']')
}

// appendMatrix renders the top-level "matrix" array of rows.
func appendMatrix(b []byte, m [][]float64) ([]byte, error) {
	if m == nil {
		return append(b, "null"...), nil
	}
	if len(m) == 0 {
		return append(b, "[]"...), nil
	}
	b = append(b, '[')
	for i, row := range m {
		if i > 0 {
			b = append(b, ',')
		}
		b = newline(b, 2)
		switch {
		case row == nil:
			b = append(b, "null"...)
		case len(row) == 0:
			b = append(b, "[]"...)
		default:
			b = append(b, '[')
			for j, f := range row {
				if j > 0 {
					b = append(b, ',')
				}
				b = newline(b, 3)
				var err error
				if b, err = appendFloat(b, f); err != nil {
					return b, err
				}
			}
			b = newline(b, 2)
			b = append(b, ']')
		}
	}
	b = newline(b, 1)
	return append(b, ']'), nil
}

// appendUnits renders the top-level "units" object, keys in byte order
// as encoding/json sorts them.
func (p *MatrixPayload) appendUnits(rb *renderBuf, b []byte) []byte {
	if p.Units == nil {
		return append(b, "null"...)
	}
	if len(p.Units) == 0 {
		return append(b, "{}"...)
	}
	keys := rb.keys[:0]
	for k := range p.Units {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rb.keys = keys[:0]
	b = append(b, '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = newline(b, 2)
		b = appendString(b, k)
		b = append(b, ": "...)
		us := p.Units[k]
		switch {
		case us == nil:
			b = append(b, "null"...)
			continue
		case len(us) == 0:
			b = append(b, "[]"...)
			continue
		}
		b = append(b, '[')
		for j := range us {
			if j > 0 {
				b = append(b, ',')
			}
			b = newline(b, 3)
			b = append(b, '{')
			b = newline(b, 4)
			b = append(b, "\"file\": "...)
			b = appendString(b, us[j].File)
			b = append(b, ',')
			b = newline(b, 4)
			b = append(b, "\"role\": "...)
			b = appendString(b, us[j].Role)
			b = append(b, ',')
			b = newline(b, 4)
			b = append(b, "\"fingerprint\": \""...)
			b = tree.Fingerprint(us[j].Fingerprint).AppendHex(b)
			b = append(b, '"')
			b = newline(b, 3)
			b = append(b, '}')
		}
		b = newline(b, 2)
		b = append(b, ']')
	}
	b = newline(b, 1)
	return append(b, '}')
}

// appendFloat renders f by encoding/json's float64 rules: the shortest
// representation that round-trips, in 'f' form unless the magnitude is
// below 1e-6 or at least 1e21, and then in 'e' form with a two-digit
// negative exponent shortened (1e-07 → 1e-7). NaN and ±Inf have no JSON
// form and return encoding/json's own error.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendString renders s as a JSON string with encoding/json's default
// HTML-safe escaping: '"' and '\\' backslash-escaped, \b \f \n \r \t
// short-escaped, other control bytes and '<', '>', '&' as \u00XX,
// U+2028 and U+2029 as \u202X, and each invalid UTF-8 byte as \ufffd.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xf])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
