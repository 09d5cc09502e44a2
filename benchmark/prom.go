package main

import (
	"bufio"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
)

// promSample is one scrape of the program's own telemetry: series text
// (`name{label="value"}`, labels in exposition order) to value. What runs
// under the commit lock has no public seam to time from outside, so the
// benchmark reads the counters the program already keeps — read-only; no
// instrumentation is added to the program.
type promSample map[string]float64

// parseProm parses Prometheus text exposition format 0.0.4: comment lines
// skipped, one `series value` per line. The value is the last
// space-separated field, so label values containing spaces survive.
func parseProm(text string) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("prom: no value in %q", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("prom: bad value in %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:cut])] = v
	}
	return out, sc.Err()
}

// scrape renders and parses the CQMS's registry.
func scrape(c *core.CQMS) (promSample, error) {
	var b strings.Builder
	if err := c.Metrics().WritePrometheus(&b, false); err != nil {
		return nil, err
	}
	return parseProm(b.String())
}

// sub returns after-before, series by series (a series absent before counts
// from zero).
func (after promSample) sub(before promSample) promSample {
	out := make(promSample, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// histMeanUs is a histogram family's mean observation in microseconds over
// the sampled interval: Δsum/Δcount. labels is the literal label block
// (`{subscriber="wal"}`) or "".
func (s promSample) histMeanUs(family, labels string) float64 {
	return ratio(s[family+"_sum"+labels], s[family+"_count"+labels]) * 1e6
}

// labelValues lists the values one label takes across the series named
// series (a counter family, or a histogram family plus "_count"), sorted.
func (s promSample) labelValues(series, label string) []string {
	prefix := series + "{" + label + `="`
	var out []string
	for k := range s {
		if strings.HasPrefix(k, prefix) {
			out = append(out, strings.TrimSuffix(strings.TrimPrefix(k, prefix), `"}`))
		}
	}
	sort.Strings(out)
	return out
}
