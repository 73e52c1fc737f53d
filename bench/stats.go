package main

import (
	"math"
	"time"

	"aorta/internal/stats"
)

// percentile is stats.Percentile (nearest rank on a sorted copy), except
// that an empty input gives NaN: a metric with no samples must never pass
// for a measured zero.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return stats.Percentile(xs, p)
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0 (a share of nothing is nothing).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
