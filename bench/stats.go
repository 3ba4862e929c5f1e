package main

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"time"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is
// what the acceptance rule for this benchmark is written against. It
// needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	at := func(i int) float64 { // i of 4
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance of xs as a share of its median;
// 0 when there are fewer than two values or the median is 0.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// tailLadder is the percentiles a latency tail may be reported at,
// highest first, each with the fewest samples that leave ten beyond it.
var tailLadder = []struct {
	pct  float64
	minN int
}{{99.99, 100000}, {99.9, 10000}, {99, 1000}, {95, 200}, {90, 100}, {75, 40}}

// tailPercentile picks the percentile a tail of n samples is reported
// at: the highest rung of the ladder that still has at least ten
// samples beyond it, or 50 when not even p75 does.
func tailPercentile(n int) float64 {
	for _, r := range tailLadder {
		if n >= r.minN {
			return r.pct
		}
	}
	return 50
}

// tailMs returns the tail of latencies and the percentile it was taken
// at (see tailPercentile).
func tailMs(ms []float64) (value, pct float64) {
	pct = tailPercentile(len(ms))
	return quantile(ms, pct/100), pct
}

// toMs converts a duration to milliseconds.
func toMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// flatStats is a /stats response flattened to dotted keys
// ("serve.applied", "disk.merges", "io.Reads"); non-numeric leaves are
// dropped, booleans become 0/1.
type flatStats map[string]float64

// parseStats flattens one /stats JSON body.
func parseStats(body []byte) (flatStats, error) {
	var root map[string]any
	if err := json.Unmarshal(body, &root); err != nil {
		return nil, fmt.Errorf("parse /stats: %w", err)
	}
	out := make(flatStats)
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, c := range x {
				key := k
				if prefix != "" {
					key = prefix + "." + k
				}
				walk(key, c)
			}
		case float64:
			out[prefix] = x
		case bool:
			if x {
				out[prefix] = 1
			} else {
				out[prefix] = 0
			}
		}
	}
	walk("", root)
	return out, nil
}

// sub returns the change of every counter present in s since prev. A
// key absent from prev (a block that only appears once non-zero, like
// "io") counts from 0.
func (s flatStats) sub(prev flatStats) flatStats {
	out := make(flatStats, len(s))
	for k, v := range s {
		out[k] = v - prev[k]
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
