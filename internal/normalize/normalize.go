// Package normalize names ease.ml's automatic input normalization (§2,
// Figure 5). Inputs whose dynamic range spans many orders of magnitude (the
// paper cites an astrophysics and a proteomics application with >10
// orders) are squashed through the parameterized family
//
//	f_k(x) = −x^(2k) + x^k
//
// with one candidate model generated per value of k. The figure's canonical
// sweep is k ∈ {0.2, 0.4, 0.6, 0.8}. The simulated trainer only needs k,
// which shifts a normalized candidate's peak accuracy; no code path applies
// f_k to data.
package normalize

import "fmt"

// DefaultKs is the k sweep shown in Figure 5.
var DefaultKs = []float64{0.2, 0.4, 0.6, 0.8}

// Normalizer is one member of the f_k family, applied to inputs min-max
// scaled to [0,1].
type Normalizer struct {
	// K is the family parameter; must be > 0.
	K float64
}

// New returns a Normalizer for the given k. It panics if k ≤ 0.
func New(k float64) Normalizer {
	if k <= 0 {
		panic(fmt.Sprintf("normalize: non-positive k %g", k))
	}
	return Normalizer{K: k}
}

// Name identifies the normalizer in candidate-model names.
func (n Normalizer) Name() string { return fmt.Sprintf("norm(k=%g)", n.K) }

// Sweep returns one Normalizer per k in ks (DefaultKs when ks is nil) —
// each combination of a sweep entry and a consistent model is one candidate
// model (§2, "Candidate Model Generation: Automatic Normalization").
func Sweep(ks []float64) []Normalizer {
	if ks == nil {
		ks = DefaultKs
	}
	out := make([]Normalizer, len(ks))
	for i, k := range ks {
		out[i] = New(k)
	}
	return out
}
