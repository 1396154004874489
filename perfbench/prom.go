package main

import (
	"bufio"
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"grouphash/internal/stats"
)

// scrape is one reading of a stats.Registry: every sample line of its
// Prometheus exposition, keyed by `name` or `name{labels}`.
type scrape map[string]float64

func readRegistry(r *stats.Registry) (scrape, error) {
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return parseExposition(buf.Bytes())
}

func parseExposition(b []byte) (scrape, error) {
	s := scrape{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("exposition: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("exposition: line %q: %w", line, err)
		}
		s[line[:i]] = v
	}
	return s, sc.Err()
}

// delta is the growth of series key between two scrapes.
func delta(before, after scrape, key string) float64 { return after[key] - before[key] }

// histDelta estimates quantile q of the observations an unlabelled
// histogram gained between two scrapes, from its cumulative `le`
// buckets, interpolating linearly inside a bucket. The exposition omits
// empty buckets, so each scrape is read as a step function of the bound.
func histDelta(before, after scrape, name string, q float64) float64 {
	type point struct{ le, cum float64 }
	read := func(s scrape) []point {
		prefix := name + `_bucket{le="`
		var pts []point
		for k, v := range s {
			rest, ok := strings.CutPrefix(k, prefix)
			if !ok || strings.HasPrefix(rest, "+Inf") {
				continue
			}
			le, err := strconv.ParseFloat(strings.TrimSuffix(rest, `"}`), 64)
			if err == nil {
				pts = append(pts, point{le, v})
			}
		}
		sort.Slice(pts, func(i, j int) bool { return pts[i].le < pts[j].le })
		return pts
	}
	cumAt := func(pts []point, le float64) float64 {
		c := 0.0
		for _, p := range pts {
			if p.le > le {
				break
			}
			c = p.cum
		}
		return c
	}
	b, a := read(before), read(after)
	var d []point
	for _, p := range a {
		d = append(d, point{p.le, p.cum - cumAt(b, p.le)})
	}
	if len(d) == 0 || d[len(d)-1].cum == 0 {
		return 0
	}
	rank := q * d[len(d)-1].cum
	lastLe, prev := 0.0, 0.0
	for _, p := range d {
		if p.cum >= rank && p.cum > prev {
			// A stats.Histogram bucket spans at most the top ninth of its
			// upper bound; the previous listed bound may lie further down.
			lo := max(lastLe, p.le*8/9)
			return lo + (p.le-lo)*(rank-prev)/(p.cum-prev)
		}
		lastLe, prev = p.le, p.cum
	}
	return d[len(d)-1].le
}
