package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4}, {0.99, 4.96},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("quantile sorted its input in place: %v", xs)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of an empty sample is not NaN")
	}
}

func TestDurationConversions(t *testing.T) {
	ms := durMS([]time.Duration{1500 * time.Microsecond, 2 * time.Second})
	if ms[0] != 1.5 || ms[1] != 2000 {
		t.Errorf("durMS = %v", ms)
	}
	if s := durS([]time.Duration{250 * time.Millisecond}); s[0] != 0.25 {
		t.Errorf("durS = %v", s)
	}
	if share(1, 4) != 0.25 || share(3, 0) != 0 {
		t.Error("share")
	}
}
