package serve

import (
	"errors"
	"fmt"
	"strconv"

	"silvervale/internal/core"
	"silvervale/internal/tree"
)

// Response payloads shared with the one-shot CLI. The matrix payload and
// its encoder live here (not in cmd/silvervale) precisely so the daemon
// and `matrix -json` emit the same bytes from the same data — the
// byte-identity acceptance gate falls out of sharing the codec instead
// of pinning two implementations against each other.

// UnitFingerprint is one unit's content address in a JSON payload.
type UnitFingerprint struct {
	File        string      `json:"file"`
	Role        string      `json:"role"`
	Fingerprint Fingerprint `json:"fingerprint"`
}

// Fingerprint is a unit tree's fingerprint in a JSON payload, rendered as
// its String form ("h1h2:size" in hex). Payloads carry the value, not the
// string, so building one formats nothing; the matrix writer appends the
// hex straight into its output.
type Fingerprint tree.Fingerprint

// MarshalText renders the fingerprint for encoding/json.
func (f Fingerprint) MarshalText() ([]byte, error) {
	return tree.Fingerprint(f).AppendHex(nil), nil
}

// UnmarshalText parses the String form back, so clients can decode
// payloads into these types.
func (f *Fingerprint) UnmarshalText(text []byte) error {
	s := string(text)
	if len(s) < 34 || s[32] != ':' {
		return fmt.Errorf("serve: malformed fingerprint %q", s)
	}
	h1, err1 := strconv.ParseUint(s[:16], 16, 64)
	h2, err2 := strconv.ParseUint(s[16:32], 16, 64)
	size, err3 := strconv.ParseUint(s[33:], 10, 32)
	if err := errors.Join(err1, err2, err3); err != nil {
		return fmt.Errorf("serve: malformed fingerprint %q: %w", s, err)
	}
	*f = Fingerprint{H1: h1, H2: h2, Size: uint32(size)}
	return nil
}

// MatrixPayload is the matrix sweep payload (`matrix -json` and
// POST /v1/matrix): the sweep plus each model's per-unit tree
// fingerprints, so downstream tooling can content-address which trees
// produced the numbers.
type MatrixPayload struct {
	App    string                       `json:"app"`
	Metric string                       `json:"metric"`
	Order  []string                     `json:"order"`
	Matrix [][]float64                  `json:"matrix"`
	Units  map[string][]UnitFingerprint `json:"units"`
}

// FingerprintMetric picks the tree whose fingerprint JSON payloads
// carry: the requested metric if it is a tree metric, tsem otherwise
// (SLOC/LLOC and the Source variants have no tree of their own).
func FingerprintMetric(metric string) string {
	for _, m := range core.TreeMetrics() {
		if m == metric {
			return metric
		}
	}
	return core.MetricTsem
}

// BuildMatrixPayload assembles the payload from a computed sweep and the
// indexes it swept.
func BuildMatrixPayload(app, metric string, order []string, m [][]float64, idxs map[string]*core.Index) *MatrixPayload {
	fpm := FingerprintMetric(metric)
	p := &MatrixPayload{
		App: app, Metric: metric, Order: order, Matrix: m,
		Units: map[string][]UnitFingerprint{},
	}
	for _, model := range order {
		idx := idxs[model]
		if idx == nil {
			continue
		}
		for i := range idx.Units {
			u := &idx.Units[i]
			p.Units[model] = append(p.Units[model], UnitFingerprint{
				File: u.File, Role: u.Role,
				Fingerprint: Fingerprint(u.TreeFingerprint(fpm)),
			})
		}
	}
	return p
}

// FromBasePayload is the POST /v1/frombase response: each model's
// divergence from the base model under one metric, plus the base's
// per-unit fingerprints.
type FromBasePayload struct {
	App    string             `json:"app"`
	Base   string             `json:"base"`
	Metric string             `json:"metric"`
	Order  []string           `json:"order"`
	Values map[string]float64 `json:"values"`
	Units  []UnitFingerprint  `json:"units"`
}

// BuildFromBasePayload assembles the from-base payload.
func BuildFromBasePayload(app, base, metric string, order []string, values map[string]float64, baseIdx *core.Index) *FromBasePayload {
	fpm := FingerprintMetric(metric)
	p := &FromBasePayload{App: app, Base: base, Metric: metric, Order: order, Values: values}
	if baseIdx != nil {
		for i := range baseIdx.Units {
			u := &baseIdx.Units[i]
			p.Units = append(p.Units, UnitFingerprint{
				File: u.File, Role: u.Role,
				Fingerprint: Fingerprint(u.TreeFingerprint(fpm)),
			})
		}
	}
	return p
}
