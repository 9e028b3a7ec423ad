// Package codegen implements ease.ml's code-generation step (§2, Figure 3):
// a user program is translated into system data types (rendered in Julia
// format, as in the paper), and into a Python library stub exposing the
// three user-facing operations (feed, refine, infer) that carries the task's
// unique identifier and the ease.ml server address.
package codegen

import (
	"fmt"
	"strings"

	"repro/internal/dsl"
)

// JuliaTypes renders the system data types of a program in Julia format,
// exactly in the Figure 3 style:
//
//	type Input
//	    field1 :: Tensor[256, 256, 3]
//	end
//
// Recursive fields render as Nullable pointers to the same type. Anonymous
// tensor fields are assigned field1, field2, … names in order; explicitly
// named fields keep their names.
func JuliaTypes(p dsl.Program) string {
	var sb strings.Builder
	writeJuliaType(&sb, "Input", p.Input)
	sb.WriteString("\n")
	writeJuliaType(&sb, "Output", p.Output)
	return sb.String()
}

func writeJuliaType(sb *strings.Builder, name string, d dsl.DataType) {
	fmt.Fprintf(sb, "type %s\n", name)
	auto := 1
	used := map[string]bool{}
	for _, f := range d.NonRec {
		used[f.Name] = true
	}
	for _, r := range d.Rec {
		used[r] = true
	}
	for _, f := range d.NonRec {
		fieldName := f.Name
		if fieldName == "" {
			for {
				fieldName = fmt.Sprintf("field%d", auto)
				auto++
				if !used[fieldName] {
					break
				}
			}
			used[fieldName] = true
		}
		dims := make([]string, len(f.Dims))
		for i, dim := range f.Dims {
			dims[i] = fmt.Sprint(dim)
		}
		fmt.Fprintf(sb, "    %s :: Tensor[%s]\n", fieldName, strings.Join(dims, ", "))
	}
	for _, r := range d.Rec {
		fmt.Fprintf(sb, "    %s :: Nullable{%s}\n", r, name)
	}
	sb.WriteString("end\n")
}

// PythonLibrary renders the importable Python stub of Figure 3's
// "Define Model: myapp.py" walkthrough: feed, refine and infer in
// programmable form.
func PythonLibrary(taskID, server string, p dsl.Program) string {
	var sb strings.Builder
	sb.WriteString("# Generated by ease.ml — do not edit.\n")
	fmt.Fprintf(&sb, "TASK_ID = %q\n", taskID)
	fmt.Fprintf(&sb, "SERVER = %q\n", server)
	fmt.Fprintf(&sb, "I = %s\n", pyShape(p.Input))
	fmt.Fprintf(&sb, "O = %s\n", pyShape(p.Output))
	sb.WriteString(`

def feed(inputs, outputs):
    """Register input/output example pairs with the ease.ml server."""
    return _post("feed", {"inputs": inputs, "outputs": outputs})


def refine(example_id, enabled):
    """Enable or disable a previously fed example."""
    return _post("refine", {"example": example_id, "enabled": enabled})


def f(x):
    """Apply the best model learned so far to input x."""
    return _post("infer", {"input": x})


def _post(op, payload):
    import json
    import urllib.request
    req = urllib.request.Request(
        SERVER + "/jobs/" + TASK_ID + "/" + op,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req) as resp:
        return json.load(resp)
`)
	return sb.String()
}

// pyShape renders the first tensor field's shape as a Python list, matching
// Figure 3's "I = [256, 256, 3]".
func pyShape(d dsl.DataType) string {
	if len(d.NonRec) == 0 {
		return "[]"
	}
	dims := d.NonRec[0].Dims
	parts := make([]string, len(dims))
	for i, dim := range dims {
		parts[i] = fmt.Sprint(dim)
	}
	return "[" + strings.Join(parts, ", ") + "]"
}
