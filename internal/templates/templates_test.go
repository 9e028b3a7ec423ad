package templates

import (
	"strings"
	"testing"

	"repro/internal/dsl"
)

func TestCatalogOrder(t *testing.T) {
	cat := Catalog()
	if len(cat) != 7 {
		t.Fatalf("catalog has %d templates, want the 7 rows of Figure 4", len(cat))
	}
	wantOrder := []string{
		"image-classification", "image-recovery", "timeseries-classification",
		"timeseries-translation", "tree-classification",
		"general-classification", "general-autoencoder",
	}
	for i, tpl := range cat {
		if tpl.Name != wantOrder[i] {
			t.Errorf("catalog[%d] = %q, want %q", i, tpl.Name, wantOrder[i])
		}
	}
}

// Each row of Figure 4 must match its canonical program and resolve to the
// published model list.
func TestFigure4Rows(t *testing.T) {
	cases := []struct {
		prog       string
		wantName   string
		wantModels []string
	}{
		{
			prog:     "{input: {[Tensor[256, 256, 3]], []}, output: {[Tensor[10]], []}}",
			wantName: "image-classification",
			wantModels: []string{"AlexNet", "ResNet", "GoogLeNet", "SqueezeNet",
				"VGG", "NIN", "BN-AlexNet"},
		},
		{
			prog:       "{input: {[Tensor[64, 64, 3]], []}, output: {[Tensor[64, 64, 3]], []}}",
			wantName:   "image-recovery",
			wantModels: []string{"Auto-encoder", "GAN", "pix2pix"},
		},
		{
			prog:       "{input: {[Tensor[10]], [a]}, output: {[Tensor[4]], []}}",
			wantName:   "timeseries-classification",
			wantModels: []string{"RNN", "LSTM", "bi-LSTM", "GRU"},
		},
		{
			prog:       "{input: {[Tensor[10]], [a]}, output: {[Tensor[8]], [b]}}",
			wantName:   "timeseries-translation",
			wantModels: []string{"seq2seq"},
		},
		{
			prog:       "{input: {[Tensor[16]], [a, c]}, output: {[Tensor[3]], []}}",
			wantName:   "tree-classification",
			wantModels: []string{"Tree-RNN", "Tree kernel SVM"},
		},
		{
			// 2-D input matches no specific row, falls through to general
			// classification.
			prog:       "{input: {[Tensor[5, 5]], []}, output: {[Tensor[3]], []}}",
			wantName:   "general-classification",
			wantModels: []string{"Bit-level RNN"},
		},
		{
			// Tensor→tensor with rec fields on the output only: general
			// auto-encoder.
			prog:       "{input: {[Tensor[5, 5]], []}, output: {[Tensor[2, 2]], [r]}}",
			wantName:   "general-autoencoder",
			wantModels: []string{"Bit-level Auto-encoder"},
		},
	}
	for _, tc := range cases {
		prog := dsl.MustParse(tc.prog)
		tpl, err := Match(prog)
		if err != nil {
			t.Errorf("%s: %v", tc.prog, err)
			continue
		}
		if tpl.Name != tc.wantName {
			t.Errorf("%s matched %q, want %q", tc.prog, tpl.Name, tc.wantName)
			continue
		}
		if len(tpl.Models) != len(tc.wantModels) {
			t.Errorf("%s: %d models, want %d", tc.prog, len(tpl.Models), len(tc.wantModels))
			continue
		}
		for i := range tpl.Models {
			if tpl.Models[i] != tc.wantModels[i] {
				t.Errorf("%s: model[%d] = %q, want %q", tc.prog, i, tpl.Models[i], tc.wantModels[i])
			}
		}
	}
}

// Matching goes top to bottom: an image-classification program must match
// the specific row even though the general rows also cover it.
func TestMatchOrderSpecificFirst(t *testing.T) {
	prog := dsl.MustParse("{input: {[Tensor[32, 32, 3]], []}, output: {[Tensor[10]], []}}")
	tpl, err := Match(prog)
	if err != nil {
		t.Fatal(err)
	}
	if tpl.Name != "image-classification" {
		t.Errorf("matched %q, want the most specific template", tpl.Name)
	}
}

// A time-series program with extra nonrecursive tail fields still matches
// via the '*' tail wildcard.
func TestTailWildcard(t *testing.T) {
	prog := dsl.MustParse("{input: {[Tensor[10], Tensor[3], Tensor[7]], [a]}, output: {[Tensor[4]], []}}")
	tpl, err := Match(prog)
	if err != nil {
		t.Fatal(err)
	}
	if tpl.Name != "timeseries-classification" {
		t.Errorf("matched %q, want timeseries-classification", tpl.Name)
	}
	// But the head rank must still match: a rank-2 head falls through.
	prog2 := dsl.MustParse("{input: {[Tensor[10, 2], Tensor[3]], [a]}, output: {[Tensor[4]], []}}")
	tpl2, err := Match(prog2)
	if err != nil {
		t.Fatal(err)
	}
	if tpl2.Name == "timeseries-classification" {
		t.Error("rank-2 head should not match Tensor[A] pattern")
	}
}

// Everything matches some template: the last row is a universal fallback.
func TestEverythingMatches(t *testing.T) {
	progs := []string{
		"{input: {[Tensor[1]], []}, output: {[Tensor[1]], []}}",
		"{input: {[Tensor[2, 3, 4, 5]], [a, b, c]}, output: {[Tensor[7, 7]], [x]}}",
		"{input: {[f :: Tensor[9]], [next]}, output: {[Tensor[9], Tensor[2]], [next]}}",
	}
	for _, src := range progs {
		if _, err := Match(dsl.MustParse(src)); err != nil {
			t.Errorf("%s: %v", src, err)
		}
	}
}

func TestGenerateWithNormalization(t *testing.T) {
	prog := dsl.MustParse("{input: {[Tensor[256, 256, 3]], []}, output: {[Tensor[3]], []}}")
	cands, tpl, err := Generate(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !tpl.ImageShaped {
		t.Fatal("image template not flagged ImageShaped")
	}
	// 7 base models + 7 × 4 normalization variants (Figure 5 default sweep).
	if len(cands) != 7+7*4 {
		t.Fatalf("%d candidates, want 35", len(cands))
	}
	seen := map[string]bool{}
	for _, c := range cands {
		if seen[c.Name()] {
			t.Errorf("duplicate candidate %q", c.Name())
		}
		seen[c.Name()] = true
	}
	if !seen["VGG+norm(k=0.2)"] || !seen["AlexNet"] {
		t.Errorf("expected candidates missing: %v", seen)
	}
	// Generate renders each name once; a hand-built literal renders on
	// demand, to the same string, and a generated name costs nothing to read.
	for _, c := range cands {
		if lit := (Candidate{Model: c.Model, Normalizer: c.Normalizer}); lit.Name() != c.Name() {
			t.Errorf("generated name %q, literal renders %q", c.Name(), lit.Name())
		}
	}
	last := cands[len(cands)-1]
	if allocs := testing.AllocsPerRun(100, func() { _ = last.Name() }); allocs != 0 {
		t.Errorf("Name() of a generated candidate allocates %v times", allocs)
	}
}

func TestGenerateWithoutNormalization(t *testing.T) {
	prog := dsl.MustParse("{input: {[Tensor[10]], [a]}, output: {[Tensor[4]], []}}")
	cands, tpl, err := Generate(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tpl.ImageShaped {
		t.Error("time-series template flagged ImageShaped")
	}
	if len(cands) != 4 {
		t.Fatalf("%d candidates, want 4 (RNN family)", len(cands))
	}
	for _, c := range cands {
		if c.Normalizer != nil {
			t.Errorf("unexpected normalizer on %q", c.Name())
		}
		if strings.Contains(c.Name(), "norm") {
			t.Errorf("candidate name %q mentions normalization", c.Name())
		}
	}
}

func TestGenerateCustomSweep(t *testing.T) {
	prog := dsl.MustParse("{input: {[Tensor[8, 8, 3]], []}, output: {[Tensor[2]], []}}")
	cands, _, err := Generate(prog, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 7+7 {
		t.Fatalf("%d candidates, want 14", len(cands))
	}
}

func TestListPatSemantics(t *testing.T) {
	mk := func(ranks ...int) []dsl.TensorField {
		fs := make([]dsl.TensorField, len(ranks))
		for i, r := range ranks {
			dims := make([]int, r)
			for d := range dims {
				dims[d] = 2
			}
			fs[i] = dsl.TensorField{Dims: dims}
		}
		return fs
	}
	exact1 := ListPat{Pats: []TensorPat{{Rank: 1}}}
	if exact1.matchList(mk(1, 1)) {
		t.Error("exact pattern matched longer list")
	}
	if !exact1.matchList(mk(1)) {
		t.Error("exact pattern missed exact list")
	}
	tail1 := ListPat{Pats: []TensorPat{{Rank: 1}}, Tail: true}
	if !tail1.matchList(mk(1, 3, 2)) {
		t.Error("tail pattern missed list with extra fields")
	}
	if tail1.matchList(nil) {
		t.Error("tail pattern matched empty list despite head requirement")
	}
	wild := ListPat{Tail: true}
	if !wild.matchList(nil) || !wild.matchList(mk(4)) {
		t.Error("wildcard pattern should match everything")
	}
}
