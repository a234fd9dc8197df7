package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedSeparation(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d collisions between different seeds", same)
	}
}

func TestSubStreams(t *testing.T) {
	parent := New(7)
	c1 := parent.Sub("geo")
	c2 := parent.Sub("eyeballs")
	c1b := New(7).Sub("geo")
	if c1.Uint64() != c1b.Uint64() {
		t.Error("same-label sub-streams differ")
	}
	if c1.Uint64() == c2.Uint64() {
		t.Error("different-label sub-streams coincide")
	}
	// Deriving children must not advance the parent.
	p1, p2 := New(7), New(7)
	p1.Sub("x")
	if p1.Uint64() != p2.Uint64() {
		t.Error("Sub advanced the parent stream")
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(3)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		v := s.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("Intn(10) value %d count %d outside uniform band", v, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		s := New(seed)
		for i := 0; i < 100; i++ {
			f := s.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestNormMoments(t *testing.T) {
	s := New(11)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := s.Norm(5, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-5) > 0.05 {
		t.Errorf("mean = %f, want ~5", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Errorf("stddev = %f, want ~2", math.Sqrt(variance))
	}
}

func TestPermIsPermutation(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		s := New(seed)
		p := s.Perm(50)
		seen := make([]bool, 50)
		for _, v := range p {
			if v < 0 || v >= 50 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

func TestIntBetween(t *testing.T) {
	s := New(19)
	for i := 0; i < 1000; i++ {
		v := s.IntBetween(5, 7)
		if v < 5 || v > 7 {
			t.Fatalf("IntBetween out of range: %d", v)
		}
	}
	if got := s.IntBetween(4, 4); got != 4 {
		t.Errorf("degenerate IntBetween = %d", got)
	}
}
