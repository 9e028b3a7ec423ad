// Command metriclint is CI's metric-naming gate. It has two modes:
//
// Source mode (default) walks a Go source tree and collects every metric
// name registered through the telemetry constructors (Counter, CounterVec,
// Gauge, GaugeVec, Histogram, HistogramVec, ValueHistogram) or declared at
// scrape time via
// telemetry.WriteMetricHeader, then enforces the naming contract:
//
//   - names are lower snake_case ([a-z][a-z0-9_]*),
//   - every name is registered exactly once across the tree (two call
//     sites claiming the same family is a merge accident waiting to
//     produce double-counted series).
//
// The same walk collects span operation names declared through
// telemetry.SpanOp and holds them to the same contract in their own
// namespace: snake_case, registered once. (SpanOp panics on a bad name at
// runtime; the linter catches it before anything boots.)
//
// Exposition mode (-exposition) reads Prometheus text format on stdin and
// validates it parses: well-formed # HELP / # TYPE preambles, sample lines
// of the shape name{labels} value, no sample without a preceding TYPE, and
// every sample grouped under its own family's TYPE (the most recently
// declared one: the format forbids interleaving two families' samples).
// CI's scrape smoke pipes a live GET /metrics through it.
//
// Usage:
//
//	go run ./tools/metriclint .             # lint the source tree
//	curl -s host/metrics | go run ./tools/metriclint -exposition
package main

import (
	"bufio"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

var nameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// constructors maps telemetry registration method names to the index of
// their metric-name argument.
var constructors = map[string]int{
	"Counter": 0, "CounterVec": 0,
	"Gauge": 0, "GaugeVec": 0,
	"Histogram": 0, "HistogramVec": 0, "ValueHistogram": 0,
	"WriteMetricHeader": 1,
}

type site struct {
	name string
	pos  string
}

// lintSource walks root for non-test .go files and returns naming problems.
func lintSource(root string) ([]string, error) {
	var sites, spanSites []site
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			base := d.Name()
			if base == ".git" || base == "testdata" || base == "vendor" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if sel.Sel.Name == "SpanOp" && len(call.Args) == 1 {
				if name, ok := stringArg(call.Args[0]); ok {
					spanSites = append(spanSites, site{name: name, pos: fset.Position(call.Args[0].Pos()).String()})
				}
				return true
			}
			argIdx, ok := constructors[sel.Sel.Name]
			if !ok || len(call.Args) <= argIdx {
				return true
			}
			name, ok := stringArg(call.Args[argIdx])
			if !ok {
				return true
			}
			sites = append(sites, site{name: name, pos: fset.Position(call.Args[argIdx].Pos()).String()})
			return true
		})
		return nil
	})
	if err != nil {
		return nil, err
	}

	var problems []string
	seen := make(map[string]string)
	for _, s := range sites {
		if !nameRE.MatchString(s.name) {
			problems = append(problems, fmt.Sprintf("%s: metric name %q is not lower snake_case", s.pos, s.name))
		}
		if prev, dup := seen[s.name]; dup {
			problems = append(problems, fmt.Sprintf("%s: metric %q already registered at %s", s.pos, s.name, prev))
		} else {
			seen[s.name] = s.pos
		}
	}
	// Span ops are their own namespace: a span op may share a word with a
	// metric family, but not with another SpanOp declaration.
	seenOps := make(map[string]string)
	for _, s := range spanSites {
		if !nameRE.MatchString(s.name) {
			problems = append(problems, fmt.Sprintf("%s: span op %q is not lower snake_case", s.pos, s.name))
		}
		if prev, dup := seenOps[s.name]; dup {
			problems = append(problems, fmt.Sprintf("%s: span op %q already registered at %s", s.pos, s.name, prev))
		} else {
			seenOps[s.name] = s.pos
		}
	}
	sort.Strings(problems)
	return problems, nil
}

// stringArg unwraps a call argument that is a string literal.
func stringArg(arg ast.Expr) (string, bool) {
	lit, ok := arg.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	name, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return name, true
}

var (
	helpRE = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) `)
	typeRE = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
	// sampleRE is one sample line: name{labels} value. Label values may
	// contain escaped quotes; the value is a Go float, NaN or ±Inf.
	sampleRE = regexp.MustCompile(
		`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]?Inf|[+-]?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?)$`)
)

// lintExposition validates Prometheus text format and returns problems.
func lintExposition(r io.Reader) []string {
	var problems []string
	types := make(map[string]string)
	current := "" // the family of the most recent # TYPE
	samples := 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			// Arbitrary comments are legal; malformed HELP/TYPE are not.
			switch {
			case typeRE.MatchString(line):
				m := typeRE.FindStringSubmatch(line)
				if _, dup := types[m[1]]; dup {
					problems = append(problems, fmt.Sprintf("line %d: duplicate # TYPE for %s", lineNo, m[1]))
				}
				types[m[1]] = m[2]
				current = m[1]
			case strings.HasPrefix(line, "# TYPE"):
				problems = append(problems, fmt.Sprintf("line %d: malformed # TYPE: %q", lineNo, line))
			case strings.HasPrefix(line, "# HELP") && !helpRE.MatchString(line):
				problems = append(problems, fmt.Sprintf("line %d: malformed # HELP: %q", lineNo, line))
			}
			continue
		}
		m := sampleRE.FindStringSubmatch(line)
		if m == nil {
			problems = append(problems, fmt.Sprintf("line %d: unparseable sample: %q", lineNo, line))
			continue
		}
		samples++
		name := m[1]
		family := name
		if _, ok := types[name]; !ok {
			// Histogram series carry per-family suffixes.
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if t := strings.TrimSuffix(name, suffix); t != name && types[t] == "histogram" {
					family = t
					break
				}
			}
		}
		switch _, ok := types[family]; {
		case !ok:
			problems = append(problems, fmt.Sprintf("line %d: sample %s has no preceding # TYPE", lineNo, name))
		case family != current:
			problems = append(problems, fmt.Sprintf("line %d: sample %s is not grouped under its family's # TYPE (the last one declared is %s)", lineNo, name, current))
		}
	}
	if err := sc.Err(); err != nil {
		problems = append(problems, fmt.Sprintf("reading exposition: %v", err))
	}
	if samples == 0 {
		problems = append(problems, "exposition contains no samples")
	}
	return problems
}

func main() {
	exposition := flag.Bool("exposition", false, "validate Prometheus text format on stdin instead of linting source")
	flag.Parse()

	var problems []string
	if *exposition {
		problems = lintExposition(os.Stdin)
	} else {
		root := "."
		if flag.NArg() > 0 {
			root = flag.Arg(0)
		}
		var err error
		problems, err = lintSource(root)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metriclint: %v\n", err)
			os.Exit(2)
		}
	}
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "metriclint: %s\n", p)
	}
	if len(problems) > 0 {
		os.Exit(1)
	}
	fmt.Println("metriclint: ok")
}
