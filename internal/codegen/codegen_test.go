package codegen

import (
	"strings"
	"testing"

	"repro/internal/dsl"
)

func TestJuliaTypesImageClassification(t *testing.T) {
	p := dsl.MustParse("{input: {[Tensor[256, 256, 3]], []}, output: {[Tensor[1000]], []}}")
	got := JuliaTypes(p)
	for _, want := range []string{
		"type Input",
		"field1 :: Tensor[256, 256, 3]",
		"type Output",
		"field1 :: Tensor[1000]",
		"end",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "Nullable") {
		t.Errorf("non-recursive type mentions Nullable:\n%s", got)
	}
}

func TestJuliaTypesTimeSeries(t *testing.T) {
	p := dsl.MustParse("{input: {[Tensor[10]], [next]}, output: {[Tensor[10]], [next]}}")
	got := JuliaTypes(p)
	if !strings.Contains(got, "next :: Nullable{Input}") {
		t.Errorf("missing recursive input field:\n%s", got)
	}
	if !strings.Contains(got, "next :: Nullable{Output}") {
		t.Errorf("missing recursive output field:\n%s", got)
	}
}

func TestJuliaTypesNamedAndAutoFields(t *testing.T) {
	p := dsl.MustParse("{input: {[data :: Tensor[4], Tensor[2]], []}, output: {[Tensor[1]], []}}")
	got := JuliaTypes(p)
	if !strings.Contains(got, "data :: Tensor[4]") {
		t.Errorf("named field lost:\n%s", got)
	}
	if !strings.Contains(got, "field1 :: Tensor[2]") {
		t.Errorf("anonymous field not auto-named:\n%s", got)
	}
}

func TestJuliaTypesAutoNameAvoidsCollision(t *testing.T) {
	p := dsl.MustParse("{input: {[field1 :: Tensor[4], Tensor[2]], []}, output: {[Tensor[1]], []}}")
	got := JuliaTypes(p)
	if !strings.Contains(got, "field2 :: Tensor[2]") {
		t.Errorf("auto name collided with explicit field1:\n%s", got)
	}
}

func TestPythonLibrary(t *testing.T) {
	p := dsl.MustParse("{input: {[Tensor[256, 256, 3]], []}, output: {[Tensor[2]], []}}")
	got := PythonLibrary("myapp", "http://localhost:9000", p)
	for _, want := range []string{
		`TASK_ID = "myapp"`,
		`SERVER = "http://localhost:9000"`,
		"I = [256, 256, 3]",
		"O = [2]",
		"def feed(",
		"def refine(",
		"def f(",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("python library missing %q", want)
		}
	}
}
