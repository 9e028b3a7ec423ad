package tensor

import (
	"bytes"
	"image"
	"image/color"
	"image/png"
	"math"
	"strings"
	"testing"
)

func TestNewAndIndexing(t *testing.T) {
	tt := New(2, 3, 4)
	if shape := tt.Shape(); len(shape) != 3 || shape[0] != 2 || shape[1] != 3 || shape[2] != 4 {
		t.Fatalf("shape %v, want [2 3 4]", shape)
	}
	if len(tt.Data()) != 24 {
		t.Fatalf("%d elements, want 24", len(tt.Data()))
	}
	for i, v := range tt.Data() {
		if v != 0 {
			t.Fatalf("element %d = %g: zero init violated", i, v)
		}
	}
}

func TestPanics(t *testing.T) {
	cases := map[string]func(){
		"empty shape": func() { New() },
		"zero dim":    func() { New(2, 0) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestString(t *testing.T) {
	s := New(10).String()
	if !strings.Contains(s, "Tensor[10]") || !strings.Contains(s, "…") {
		t.Errorf("String = %q", s)
	}
}

func TestFromImageAndDecode(t *testing.T) {
	img := image.NewRGBA(image.Rect(0, 0, 4, 2)) // 4 wide, 2 tall
	img.Set(0, 0, color.RGBA{R: 255, A: 255})
	img.Set(3, 1, color.RGBA{B: 255, A: 255})
	tt := FromImage(img)
	// Row-major layout: the channel index fastest, then x, then y.
	at := func(y, x, c int) float64 { return tt.Data()[(y*4+x)*3+c] }
	wantShape := []int{2, 4, 3} // H, W, 3
	for i, d := range tt.Shape() {
		if d != wantShape[i] {
			t.Fatalf("shape %v, want %v", tt.Shape(), wantShape)
		}
	}
	if math.Abs(at(0, 0, 0)-1) > 1e-3 || at(0, 0, 2) != 0 {
		t.Errorf("red pixel decoded as (%g,%g,%g)", at(0, 0, 0), at(0, 0, 1), at(0, 0, 2))
	}
	if math.Abs(at(1, 3, 2)-1) > 1e-3 {
		t.Errorf("blue pixel channel = %g", at(1, 3, 2))
	}

	// Round-trip through an encoded PNG stream (the default loader path).
	var buf bytes.Buffer
	if err := png.Encode(&buf, img); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeImage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded.Data()) != 2*4*3 {
		t.Errorf("decoded %d elements", len(decoded.Data()))
	}
	if _, err := DecodeImage(strings.NewReader("not an image")); err == nil {
		t.Error("garbage decoded")
	}
}
