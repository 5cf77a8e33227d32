package sim

import "testing"

// Percentile edge cases pinned down explicitly: the empty histogram, a
// single sample, and linear interpolation between closest ranks.

func TestHistogramPercentileEmpty(t *testing.T) {
	h := &Histogram{}
	for _, p := range []float64{0, 50, 99, 100} {
		if got := h.Percentile(p); got != 0 {
			t.Fatalf("empty Percentile(%v) = %v, want 0", p, got)
		}
	}
	if h.N() != 0 || h.Sum() != 0 || h.Mean() != 0 {
		t.Fatalf("empty histogram: N=%d Sum=%v Mean=%v", h.N(), h.Sum(), h.Mean())
	}
}

func TestHistogramPercentileSingleSample(t *testing.T) {
	h := &Histogram{}
	h.Add(42)
	for _, p := range []float64{0, 1, 50, 99, 100} {
		if got := h.Percentile(p); got != 42 {
			t.Fatalf("single-sample Percentile(%v) = %v, want 42", p, got)
		}
	}
}

func TestHistogramPercentileInterpolation(t *testing.T) {
	h := &Histogram{}
	for _, v := range []float64{1, 2, 3, 4} {
		h.Add(v)
	}
	// p50 sits halfway between the 2nd and 3rd of four samples.
	if got := h.Percentile(50); got != 2.5 {
		t.Fatalf("p50 of [1,2,3,4] = %v, want 2.5", got)
	}

	big := &Histogram{}
	for i := 1; i <= 100; i++ {
		big.Add(float64(i))
	}
	// rank = p/100*(n-1): p99 of 1..100 interpolates 99/100 of the way
	// from 99 to 100.
	if got := big.Percentile(99); got < 99.0 || got > 100.0 {
		t.Fatalf("p99 of 1..100 = %v, want within [99,100]", got)
	}
	if got, want := big.Percentile(99), 99.01; absDiff(got, want) > 1e-9 {
		t.Fatalf("p99 of 1..100 = %v, want %v", got, want)
	}
	if got := big.Percentile(0); got != 1 {
		t.Fatalf("p0 = %v, want 1", got)
	}
	if got := big.Percentile(100); got != 100 {
		t.Fatalf("p100 = %v, want 100", got)
	}
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}
