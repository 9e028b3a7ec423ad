package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// planted writes a small module: a command that prints a lib.T, whose
// String method only fmt calls, plus whatever extra holds, and returns its
// directory.
func planted(t *testing.T, extra string) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module planted\n\ngo 1.24\n",
		"cmd/app/main.go": `package main

import (
	"fmt"

	"planted/internal/lib"
)

func main() { fmt.Println(lib.NewT()) }
`,
		"internal/lib/lib.go": `package lib

type T struct{ n int }

func NewT() T { return T{n: 1} }

// String satisfies fmt.Stringer: fmt calls it, nothing names it.
func (t T) String() string { return "t" }
` + extra,
	}
	for name, body := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// gate runs the gate on dir with the given allowlist lines and returns its
// exit status and failure output.
func gate(t *testing.T, dir string, allow ...string) (int, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "allowlist.txt")
	if err := os.WriteFile(path, []byte(strings.Join(allow, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var errOut strings.Builder
	code := run(dir, path, io.Discard, &errOut)
	return code, errOut.String()
}

func TestPlantedUnusedExportFails(t *testing.T) {
	dir := planted(t, "\nfunc Unused() {}\n")
	// Test files are not roots: a reference from one keeps nothing.
	test := filepath.Join(dir, "internal", "lib", "lib_test.go")
	if err := os.WriteFile(test, []byte("package lib\n\nvar _ = Unused\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out := gate(t, dir); code != 1 || !strings.Contains(out, "internal/lib.Unused (func) is reached by no root") {
		t.Errorf("exit %d, output:\n%s\nwant a failure naming internal/lib.Unused", code, out)
	}
	// Allowlisted with a reason, it passes; without one, it does not.
	if code, out := gate(t, dir, "internal/lib.Unused kept for the planted test"); code != 0 {
		t.Errorf("allowlisted: exit %d, output:\n%s", code, out)
	}
	if code, _ := gate(t, dir, "internal/lib.Unused"); code != 1 {
		t.Errorf("an entry without a reason: exit %d, want 1", code)
	}
}

func TestStaleAllowlistEntryFails(t *testing.T) {
	dir := planted(t, "\nfunc Unused() {}\n")
	for _, stale := range []string{"internal/lib.NewT", "internal/lib.Gone"} {
		code, out := gate(t, dir, "internal/lib.Unused kept for the planted test", stale+" no longer true")
		if code != 1 || !strings.Contains(out, stale) || !strings.Contains(out, "delete the entry") {
			t.Errorf("stale entry %s: exit %d, output:\n%s", stale, code, out)
		}
	}
}

func TestInterfaceMethodOfReachedTypePasses(t *testing.T) {
	if code, out := gate(t, planted(t, "")); code != 0 {
		t.Errorf("exit %d, output:\n%s\nT.String satisfies fmt.Stringer and T is reached", code, out)
	}
	// A method no interface names and nothing calls is still unreached.
	dir := planted(t, "\nfunc (t T) Extra() int { return t.n }\n")
	if code, out := gate(t, dir); code != 1 || !strings.Contains(out, "internal/lib.T.Extra (method)") {
		t.Errorf("exit %d, output:\n%s\nwant a failure naming internal/lib.T.Extra", code, out)
	}
}
