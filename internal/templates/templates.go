// Package templates implements ease.ml's candidate-model generation by
// template matching (§2, Figure 4): a user program is matched from the most
// specific to the most general of seven templates, and the first match
// yields the list of consistent models. Image-shaped inputs additionally get
// one candidate per automatic-normalization variant (§2, Figure 5).
package templates

import (
	"fmt"

	"repro/internal/dsl"
	"repro/internal/normalize"
)

// TensorPat matches one nonrecursive tensor field by rank; named and
// anonymous fields match alike (Figure 4's A, B, C… are rank placeholders).
type TensorPat struct {
	Rank int
}

// ListPat matches a list of nonrecursive fields. The fields in Pats must
// match the head of the list; Tail reports whether an arbitrary remainder is
// allowed (Figure 4's "*": "matching for arbitrary tail of an array").
// The wildcard-only pattern {Pats: nil, Tail: true} matches any list.
type ListPat struct {
	Pats []TensorPat
	Tail bool
}

// RecPat matches the recursive-field list: exactly Count named fields, or
// any number when Wild is set.
type RecPat struct {
	Count int
	Wild  bool
}

// TypePat matches one side (input or output) of a program.
type TypePat struct {
	NonRec ListPat
	Rec    RecPat
}

// Template is one row of Figure 4.
type Template struct {
	Name     string // short identifier
	Workload string // "Type of Workload" column
	Input    TypePat
	Output   TypePat
	Models   []string // "Consistent Models" column
	// ImageShaped enables automatic-normalization candidates: the input is
	// a raster whose dynamic range may need squashing (§2, Figure 5).
	ImageShaped bool
}

// matchList reports whether fields match the list pattern.
func (p ListPat) matchList(fields []dsl.TensorField) bool {
	if len(fields) < len(p.Pats) {
		return false
	}
	if !p.Tail && len(fields) != len(p.Pats) {
		return false
	}
	for i, tp := range p.Pats {
		if fields[i].Rank() != tp.Rank {
			return false
		}
	}
	return true
}

// matchRec reports whether rec matches the recursive-field pattern.
func (p RecPat) matchRec(rec []string) bool {
	if p.Wild {
		return true
	}
	return len(rec) == p.Count
}

// Matches reports whether the type pattern matches the data type.
func (p TypePat) Matches(d dsl.DataType) bool {
	return p.NonRec.matchList(d.NonRec) && p.Rec.matchRec(d.Rec)
}

// Matches reports whether the template matches the program.
func (t *Template) Matches(prog dsl.Program) bool {
	return t.Input.Matches(prog.Input) && t.Output.Matches(prog.Output)
}

// Catalog returns the seven templates of Figure 4 in matching order (most
// specific first; "matching order goes from top to bottom").
func Catalog() []*Template {
	exact := func(ranks ...int) ListPat {
		pats := make([]TensorPat, len(ranks))
		for i, r := range ranks {
			pats[i] = TensorPat{Rank: r}
		}
		return ListPat{Pats: pats}
	}
	headTail := func(ranks ...int) ListPat {
		lp := exact(ranks...)
		lp.Tail = true
		return lp
	}
	wild := ListPat{Tail: true}
	return []*Template{
		{
			Name:     "image-classification",
			Workload: "Image/Tensor Classification",
			Input:    TypePat{NonRec: exact(3), Rec: RecPat{Count: 0}},
			Output:   TypePat{NonRec: exact(1), Rec: RecPat{Count: 0}},
			Models: []string{"AlexNet", "ResNet", "GoogLeNet", "SqueezeNet",
				"VGG", "NIN", "BN-AlexNet"},
			ImageShaped: true,
		},
		{
			Name:        "image-recovery",
			Workload:    "Image/Tensor \"Recovery\"",
			Input:       TypePat{NonRec: exact(3), Rec: RecPat{Count: 0}},
			Output:      TypePat{NonRec: exact(3), Rec: RecPat{Count: 0}},
			Models:      []string{"Auto-encoder", "GAN", "pix2pix"},
			ImageShaped: true,
		},
		{
			Name:     "timeseries-classification",
			Workload: "Time Series Classification",
			Input:    TypePat{NonRec: headTail(1), Rec: RecPat{Count: 1}},
			Output:   TypePat{NonRec: exact(1), Rec: RecPat{Count: 0}},
			Models:   []string{"RNN", "LSTM", "bi-LSTM", "GRU"},
		},
		{
			Name:     "timeseries-translation",
			Workload: "Time Series \"Translation\"",
			Input:    TypePat{NonRec: headTail(1), Rec: RecPat{Count: 1}},
			Output:   TypePat{NonRec: headTail(1), Rec: RecPat{Count: 1}},
			Models:   []string{"seq2seq"},
		},
		{
			Name:     "tree-classification",
			Workload: "Tree Classification",
			Input:    TypePat{NonRec: headTail(1), Rec: RecPat{Count: 2}},
			Output:   TypePat{NonRec: exact(1), Rec: RecPat{Count: 0}},
			Models:   []string{"Tree-RNN", "Tree kernel SVM"},
		},
		{
			Name:     "general-classification",
			Workload: "General Classification",
			Input:    TypePat{NonRec: wild, Rec: RecPat{Wild: true}},
			Output:   TypePat{NonRec: exact(1), Rec: RecPat{Count: 0}},
			Models:   []string{"Bit-level RNN"},
		},
		{
			Name:     "general-autoencoder",
			Workload: "General Auto-encoder",
			Input:    TypePat{NonRec: wild, Rec: RecPat{Wild: true}},
			Output:   TypePat{NonRec: wild, Rec: RecPat{Wild: true}},
			Models:   []string{"Bit-level Auto-encoder"},
		},
	}
}

// Candidate is one generated candidate model: a consistent architecture,
// optionally combined with an input-normalization variant.
type Candidate struct {
	Model      string
	Normalizer *normalize.Normalizer // nil for the identity input pipeline

	// name is Name() rendered once by Generate: the scheduler asks for it
	// several times per lease. Empty on a hand-built literal.
	name string
}

// Name renders the candidate for display and storage keys.
func (c Candidate) Name() string {
	switch {
	case c.name != "":
		return c.name
	case c.Normalizer == nil:
		return c.Model
	}
	return fmt.Sprintf("%s+%s", c.Model, c.Normalizer.Name())
}

// Match finds the first template (in Figure 4 order) consistent with the
// program. It returns an error when nothing matches, which cannot happen
// for valid programs (the general auto-encoder row matches everything) but
// guards against future catalog edits.
func Match(prog dsl.Program) (*Template, error) {
	for _, t := range Catalog() {
		if t.Matches(prog) {
			return t, nil
		}
	}
	return nil, fmt.Errorf("templates: no template matches %s", prog)
}

// Generate produces the candidate-model list for a program: the matched
// template's models, and — for image-shaped templates — one extra candidate
// per (model, normalization) pair over the Figure 5 sweep.
func Generate(prog dsl.Program, ks []float64) ([]Candidate, *Template, error) {
	t, err := Match(prog)
	if err != nil {
		return nil, nil, err
	}
	var out []Candidate
	for _, m := range t.Models {
		out = append(out, Candidate{Model: m})
	}
	if t.ImageShaped {
		for _, n := range normalize.Sweep(ks) {
			n := n
			for _, m := range t.Models {
				out = append(out, Candidate{Model: m, Normalizer: &n})
			}
		}
	}
	for i := range out {
		out[i].name = out[i].Name()
	}
	return out, t, nil
}
