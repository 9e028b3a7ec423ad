package main

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// promSample is one scrape of a Prometheus text exposition: series
// (name plus its label block, verbatim) → value.
type promSample map[string]float64

// parseProm reads the text exposition format: comment lines are skipped,
// every other line is `series value` with the series being everything up to
// the last space (label values may contain spaces). Lines that do not parse
// are ignored rather than failing the scrape.
func parseProm(r io.Reader) promSample {
	out := promSample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out
}

// delta subtracts an earlier scrape: the registry is process-global and
// cumulative, so a phase's own traffic is after − before. Series absent
// from before count from zero.
func (after promSample) delta(before promSample) promSample {
	out := make(promSample, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// get returns one exact series (0 when absent).
func (s promSample) get(series string) float64 { return s[series] }

// sumName adds every series of a metric name whose label block contains all
// of the given `key="value"` fragments.
func (s promSample) sumName(name string, labelFragments ...string) float64 {
	var t float64
	for k, v := range s {
		if k != name && !strings.HasPrefix(k, name+"{") {
			continue
		}
		ok := true
		for _, f := range labelFragments {
			if !strings.Contains(k, f) {
				ok = false
				break
			}
		}
		if ok {
			t += v
		}
	}
	return t
}
