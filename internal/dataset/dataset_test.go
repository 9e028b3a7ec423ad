package dataset

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// Validate checks the invariants every dataset constructor promises:
// matching dimensions, qualities in [0,1] and strictly positive costs.
func (d *Dataset) Validate() error {
	n, k := d.NumUsers(), d.NumModels()
	if n == 0 || k == 0 {
		return fmt.Errorf("dataset %q: empty (%d users × %d models)", d.Name, n, k)
	}
	if len(d.Quality) != n || len(d.Cost) != n {
		return fmt.Errorf("dataset %q: matrix rows %d/%d do not match %d users", d.Name, len(d.Quality), len(d.Cost), n)
	}
	for i := 0; i < n; i++ {
		if len(d.Quality[i]) != k || len(d.Cost[i]) != k {
			return fmt.Errorf("dataset %q: row %d has %d/%d columns, want %d", d.Name, i, len(d.Quality[i]), len(d.Cost[i]), k)
		}
		for j := 0; j < k; j++ {
			if q := d.Quality[i][j]; q < 0 || q > 1 {
				return fmt.Errorf("dataset %q: quality[%d][%d] = %g outside [0,1]", d.Name, i, j, q)
			}
			if c := d.Cost[i][j]; c <= 0 {
				return fmt.Errorf("dataset %q: cost[%d][%d] = %g not positive", d.Name, i, j, c)
			}
		}
	}
	return nil
}

func TestDeepLearningShape(t *testing.T) {
	d := DeepLearning()
	if d.NumUsers() != 22 || d.NumModels() != 8 {
		t.Fatalf("shape %d×%d, want 22×8 (Figure 8)", d.NumUsers(), d.NumModels())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDeepLearningDeterministic(t *testing.T) {
	a, b := DeepLearning(), DeepLearning()
	for i := range a.Quality {
		for j := range a.Quality[i] {
			if a.Quality[i][j] != b.Quality[i][j] || a.Cost[i][j] != b.Cost[i][j] {
				t.Fatalf("DeepLearning() is not deterministic at (%d,%d)", i, j)
			}
		}
	}
}

func TestDeepLearningModels(t *testing.T) {
	d := DeepLearning()
	want := map[string]bool{
		"NIN": true, "GoogLeNet": true, "ResNet-50": true, "AlexNet": true,
		"BN-AlexNet": true, "ResNet-18": true, "VGG-16": true, "SqueezeNet": true,
	}
	for _, m := range d.Models {
		if !want[m.Name] {
			t.Errorf("unexpected model %q", m.Name)
		}
		delete(want, m.Name)
		if m.Citations <= 0 || m.Year < 2012 || m.Year > 2016 {
			t.Errorf("model %q has implausible metadata %+v", m.Name, m)
		}
	}
	if len(want) != 0 {
		t.Errorf("missing models: %v", want)
	}
}

// The cost spread must be heavy-tailed (VGG-16 ≫ SqueezeNet) — that is what
// makes cost-awareness matter in Figures 9/11/13.
func TestDeepLearningCostSpread(t *testing.T) {
	d := DeepLearning()
	idx := map[string]int{}
	for j, m := range d.Models {
		idx[m.Name] = j
	}
	var vgg, squeeze float64
	for i := range d.Cost {
		vgg += d.Cost[i][idx["VGG-16"]]
		squeeze += d.Cost[i][idx["SqueezeNet"]]
	}
	if vgg < 5*squeeze {
		t.Errorf("VGG-16 total cost %g should be ≥5× SqueezeNet %g", vgg, squeeze)
	}
}

// Model qualities must correlate across users: the ordering of architectures
// should be broadly consistent, which is what the GP kernel exploits.
func TestDeepLearningModelCorrelation(t *testing.T) {
	d := DeepLearning()
	idx := map[string]int{}
	for j, m := range d.Models {
		idx[m.Name] = j
	}
	better := 0
	for i := range d.Quality {
		if d.Quality[i][idx["ResNet-50"]] > d.Quality[i][idx["AlexNet"]] {
			better++
		}
	}
	if better < d.NumUsers()*3/4 {
		t.Errorf("ResNet-50 beats AlexNet on only %d/%d users", better, d.NumUsers())
	}
}

func TestClassifier179Shape(t *testing.T) {
	d := Classifier179()
	if d.NumUsers() != 121 || d.NumModels() != 179 {
		t.Fatalf("shape %d×%d, want 121×179 (Figure 8)", d.NumUsers(), d.NumModels())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestClassifier179CostsUniform(t *testing.T) {
	d := Classifier179()
	var sum float64
	var n float64
	for i := range d.Cost {
		for _, c := range d.Cost[i] {
			if c <= 0 || c >= 1 {
				t.Fatalf("cost %g outside (0,1)", c)
			}
			sum += c
			n++
		}
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.02 {
		t.Errorf("mean cost %g, want ≈0.5 for U(0,1)", mean)
	}
}

func TestSynDatasets(t *testing.T) {
	for _, tc := range []struct{ sigmaM, alpha float64 }{
		{0.01, 0.1}, {0.01, 1.0}, {0.5, 0.1}, {0.5, 1.0},
	} {
		d := Syn(tc.sigmaM, tc.alpha)
		if d.NumUsers() != 200 || d.NumModels() != 100 {
			t.Fatalf("%s: shape %d×%d, want 200×100", d.Name, d.NumUsers(), d.NumModels())
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
	}
}

func TestFigure8(t *testing.T) {
	ds := Figure8()
	if len(ds) != 6 {
		t.Fatalf("Figure8 returned %d datasets, want 6", len(ds))
	}
	wantNames := []string{"DEEPLEARNING", "179CLASSIFIER", "SYN(0.01,0.1)", "SYN(0.01,1)", "SYN(0.5,0.1)", "SYN(0.5,1)"}
	for i, d := range ds {
		if d.Name != wantNames[i] {
			t.Errorf("dataset %d is %q, want %q", i, d.Name, wantNames[i])
		}
	}
	q, c := Figure8Provenance("DEEPLEARNING")
	if q != "Real" || c != "Real" {
		t.Errorf("DEEPLEARNING provenance %s/%s", q, c)
	}
	q, c = Figure8Provenance("179CLASSIFIER")
	if q != "Real" || c != "Synthetic" {
		t.Errorf("179CLASSIFIER provenance %s/%s", q, c)
	}
	q, c = Figure8Provenance("SYN(0.5,1)")
	if q != "Synthetic" || c != "Synthetic" {
		t.Errorf("SYN provenance %s/%s", q, c)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	cases := map[string]func(*Dataset){
		"quality above 1": func(d *Dataset) { d.Quality[0][0] = 1.5 },
		"negative cost":   func(d *Dataset) { d.Cost[1][1] = -0.1 },
		"zero cost":       func(d *Dataset) { d.Cost[2][2] = 0 },
		"ragged quality":  func(d *Dataset) { d.Quality[0] = d.Quality[0][:3] },
		"missing row":     func(d *Dataset) { d.Quality = d.Quality[:5] },
	}
	for name, corrupt := range cases {
		d := DeepLearning()
		corrupt(d)
		if err := d.Validate(); err == nil {
			t.Errorf("%s: Validate accepted corrupted dataset", name)
		}
	}
}

func TestBestQuality(t *testing.T) {
	d := &Dataset{
		Name:    "tiny",
		Users:   []string{"u"},
		Models:  []ModelInfo{{Name: "a"}, {Name: "b"}, {Name: "c"}},
		Quality: [][]float64{{0.3, 0.9, 0.5}},
		Cost:    [][]float64{{1, 1, 1}},
	}
	if got := d.BestQuality(0); got != 0.9 {
		t.Errorf("BestQuality = %g, want 0.9", got)
	}
}

func TestTotalCost(t *testing.T) {
	d := &Dataset{
		Users:   []string{"u0", "u1"},
		Models:  []ModelInfo{{Name: "a"}, {Name: "b"}},
		Quality: [][]float64{{0.5, 0.5}, {0.5, 0.5}},
		Cost:    [][]float64{{1, 2}, {3, 4}},
	}
	if got := d.TotalCost(nil); got != 10 {
		t.Errorf("TotalCost(nil) = %g, want 10", got)
	}
	if got := d.TotalCost([]int{1}); got != 7 {
		t.Errorf("TotalCost([1]) = %g, want 7", got)
	}
}

func TestSplit(t *testing.T) {
	d := DeepLearning()
	rng := rand.New(rand.NewSource(9))
	train, test := d.Split(10, rng)
	if len(test) != 10 || len(train) != 12 {
		t.Fatalf("split sizes %d/%d, want 12/10", len(train), len(test))
	}
	seen := map[int]bool{}
	for _, u := range append(append([]int{}, train...), test...) {
		if seen[u] {
			t.Fatalf("user %d appears twice", u)
		}
		seen[u] = true
	}
	if len(seen) != 22 {
		t.Fatalf("split covers %d users, want 22", len(seen))
	}
}

func TestSplitPanicsOutOfRange(t *testing.T) {
	d := DeepLearning()
	for _, n := range []int{0, 22, 30} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Split(%d) should panic", n)
				}
			}()
			d.Split(n, rand.New(rand.NewSource(1)))
		}()
	}
}

func TestQualityVectors(t *testing.T) {
	d := &Dataset{
		Users:   []string{"u0", "u1", "u2"},
		Models:  []ModelInfo{{Name: "a"}, {Name: "b"}},
		Quality: [][]float64{{0.1, 0.2}, {0.3, 0.4}, {0.5, 0.6}},
		Cost:    [][]float64{{1, 1}, {1, 1}, {1, 1}},
	}
	fv := d.QualityVectors([]int{2, 0})
	if len(fv) != 2 {
		t.Fatalf("got %d vectors", len(fv))
	}
	if fv[0][0] != 0.5 || fv[0][1] != 0.1 || fv[1][0] != 0.6 || fv[1][1] != 0.2 {
		t.Errorf("vectors %v", fv)
	}
}

func TestSubsetDeepCopies(t *testing.T) {
	d := DeepLearning()
	s := d.Subset([]int{3, 7})
	if s.NumUsers() != 2 || s.NumModels() != 8 {
		t.Fatalf("subset shape %d×%d", s.NumUsers(), s.NumModels())
	}
	if s.Users[0] != d.Users[3] {
		t.Errorf("subset user %q", s.Users[0])
	}
	s.Quality[0][0] = -1
	if d.Quality[3][0] == -1 {
		t.Error("Subset aliases parent storage")
	}
}

func TestComputeStats(t *testing.T) {
	d := &Dataset{
		Name:    "tiny",
		Users:   []string{"u"},
		Models:  []ModelInfo{{Name: "a"}, {Name: "b"}},
		Quality: [][]float64{{0.2, 0.8}},
		Cost:    [][]float64{{1, 3}},
	}
	s := d.ComputeStats("Real", "Synthetic")
	if s.MinQuality != 0.2 || s.MaxQuality != 0.8 || math.Abs(s.MeanQuality-0.5) > 1e-12 {
		t.Errorf("quality stats %+v", s)
	}
	if s.MinCost != 1 || s.MaxCost != 3 || s.MeanCost != 2 {
		t.Errorf("cost stats %+v", s)
	}
	if s.QualityKind != "Real" || s.CostKind != "Synthetic" {
		t.Errorf("provenance %+v", s)
	}
}

// TestCSVRoundTrip reads WriteCSV's output back as plain CSV: a header, then
// one row per (user, model) pair, in order, every float at full precision.
func TestCSVRoundTrip(t *testing.T) {
	d := DeepLearning()
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + d.NumUsers()*d.NumModels(); len(rows) != want {
		t.Fatalf("%d rows, want %d", len(rows), want)
	}
	if got := strings.Join(rows[0], ","); got != "user,model,citations,year,quality,cost" {
		t.Fatalf("header %q", got)
	}
	for i, u := range d.Users {
		for j, m := range d.Models {
			rec := rows[1+i*d.NumModels()+j]
			q, errQ := strconv.ParseFloat(rec[4], 64)
			c, errC := strconv.ParseFloat(rec[5], 64)
			if errQ != nil || errC != nil {
				t.Fatalf("row (%d,%d) %v: %v %v", i, j, rec, errQ, errC)
			}
			if rec[0] != u || rec[1] != m.Name || rec[2] != strconv.Itoa(m.Citations) || rec[3] != strconv.Itoa(m.Year) ||
				q != d.Quality[i][j] || c != d.Cost[i][j] {
				t.Fatalf("row (%d,%d) = %v, want %s,%s,%d,%d,%v,%v", i, j, rec, u, m.Name, m.Citations, m.Year, d.Quality[i][j], d.Cost[i][j])
			}
		}
	}
}

// Property: Split always partitions the user set.
func TestQuickSplitPartitions(t *testing.T) {
	d := Classifier179()
	f := func(seed int64, testRaw uint8) bool {
		testCount := int(testRaw%100) + 1
		rng := rand.New(rand.NewSource(seed))
		train, test := d.Split(testCount, rng)
		if len(test) != testCount || len(train)+len(test) != d.NumUsers() {
			return false
		}
		seen := make(map[int]bool, d.NumUsers())
		for _, u := range append(append([]int{}, train...), test...) {
			if u < 0 || u >= d.NumUsers() || seen[u] {
				return false
			}
			seen[u] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDeepLearning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		DeepLearning()
	}
}

func BenchmarkClassifier179(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Classifier179()
	}
}
