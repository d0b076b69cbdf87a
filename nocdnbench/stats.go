package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"hpop/internal/hpop"
)

// percentile returns the p-quantile (p in [0,1]) of xs by linear
// interpolation between closest ranks; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (s[i+1]-s[i])*(pos-float64(i))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// spread formats a sample's size and quantiles for the report.
func spread(xs []float64) string {
	return fmt.Sprintf("n=%d p50 %.3f p90 %.3f p99 %.3f max %.3f",
		len(xs), median(xs), percentile(xs, 0.9), percentile(xs, 0.99), percentile(xs, 1))
}

// figure is one named value for the report.
type figure struct {
	name  string
	value float64
	unit  string
}

// printUngated prints, by name and unit, figures the result line does not
// carry because they do not hold still on a shared host (see README.md).
func printUngated(w io.Writer, figs ...figure) {
	for _, f := range figs {
		fmt.Fprintf(w, "ungated %-22s %12.4f %s\n", f.name, f.value, f.unit)
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// histMark is a histogram's bucket counts at one instant, so a phase's
// quantiles come from the difference between two marks.
type histMark struct {
	bounds []float64
	counts []uint64
}

// markHists sums the named histogram over several registries (one per
// peer process, say) at this instant.
func markHists(name string, regs ...*hpop.Metrics) histMark {
	var m histMark
	for _, r := range regs {
		h, ok := r.Histograms()[name]
		if !ok {
			continue
		}
		c := h.BucketCounts()
		if m.counts == nil {
			m.bounds = h.Bounds()
			m.counts = make([]uint64, len(c))
		}
		for i := range c {
			m.counts[i] += c[i]
		}
	}
	return m
}

// quantileSince estimates the p-quantile, in milliseconds, of the samples
// observed between mark a and mark b — the interpolation hpop.Histogram
// itself uses, applied to the bucket differences.
func quantileSince(a, b histMark, p float64) float64 {
	if b.counts == nil {
		return 0
	}
	delta := make([]uint64, len(b.counts))
	var total uint64
	for i := range delta {
		delta[i] = b.counts[i]
		if a.counts != nil {
			delta[i] -= a.counts[i]
		}
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	target := p * float64(total)
	var cum uint64
	for i, c := range delta {
		if c == 0 {
			continue
		}
		cum += c
		if float64(cum) >= target {
			if i == len(b.bounds) {
				return b.bounds[len(b.bounds)-1] * 1e3
			}
			lower := 0.0
			if i > 0 {
				lower = b.bounds[i-1]
			}
			frac := (target - float64(cum-c)) / float64(c)
			return (lower + (b.bounds[i]-lower)*frac) * 1e3
		}
	}
	return b.bounds[len(b.bounds)-1] * 1e3
}

// counterSum sums a counter over several registries.
func counterSum(name string, regs ...*hpop.Metrics) float64 {
	var s float64
	for _, r := range regs {
		s += r.Counter(name)
	}
	return s
}

// interval is a half-open [start, end) span of run time.
type interval struct{ start, end time.Duration }

// union merges overlapping intervals, returned sorted.
func union(xs []interval) []interval {
	if len(xs) == 0 {
		return nil
	}
	s := append([]interval(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	out := []interval{s[0]}
	for _, x := range s[1:] {
		last := &out[len(out)-1]
		if x.start <= last.end {
			if x.end > last.end {
				last.end = x.end
			}
			continue
		}
		out = append(out, x)
	}
	return out
}

// covered is the total length of a union.
func covered(u []interval) time.Duration {
	var d time.Duration
	for _, x := range u {
		d += x.end - x.start
	}
	return d
}

// overlap is the length of the intersection of two unions.
func overlap(a, b []interval) time.Duration {
	var d time.Duration
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo, hi := max(a[i].start, b[j].start), min(a[i].end, b[j].end)
		if hi > lo {
			d += hi - lo
		}
		if a[i].end < b[j].end {
			i++
		} else {
			j++
		}
	}
	return d
}
