// Package tensor implements the dense tensors that ease.ml objects carry
// (§2: every nonrecursive field is a constant-size Tensor[...]), plus the
// default loaders the paper mentions ("ease.ml provides a default loader
// for some popular Tensor types (e.g., loads JPEG images into
// Tensor[A,B,3])").
package tensor

import (
	"fmt"
	"image"
	_ "image/jpeg" // register the JPEG loader of §2
	_ "image/png"  // PNG shares the image-shaped template
	"io"
	"strings"
)

// Tensor is a dense row-major tensor of float64 values.
type Tensor struct {
	shape []int
	data  []float64
}

// New returns a zero tensor of the given shape. It panics on an empty shape
// or non-positive dimensions.
func New(shape ...int) *Tensor {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension in %v", shape))
		}
		n *= d
	}
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float64, n)}
}

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int { return append([]int(nil), t.shape...) }

// Data returns the underlying row-major storage (not a copy).
func (t *Tensor) Data() []float64 { return t.data }

// String renders shape and a few leading values for debugging.
func (t *Tensor) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Tensor%v[", t.shape)
	for i, v := range t.data {
		if i == 6 {
			sb.WriteString(", …")
			break
		}
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%.4g", v)
	}
	sb.WriteString("]")
	return sb.String()
}

// FromImage converts a decoded image into a Tensor[H, W, 3] with channel
// values scaled to [0, 1] — the default image loader of §2.
func FromImage(img image.Image) *Tensor {
	b := img.Bounds()
	h, w := b.Dy(), b.Dx()
	t := New(h, w, 3)
	i := 0
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			r, g, bl, _ := img.At(x, y).RGBA()
			t.data[i] = float64(r) / 65535
			t.data[i+1] = float64(g) / 65535
			t.data[i+2] = float64(bl) / 65535
			i += 3
		}
	}
	return t
}

// DecodeImage reads a JPEG or PNG stream into a Tensor[H, W, 3].
func DecodeImage(r io.Reader) (*Tensor, error) {
	img, _, err := image.Decode(r)
	if err != nil {
		return nil, fmt.Errorf("tensor: decode image: %w", err)
	}
	return FromImage(img), nil
}
