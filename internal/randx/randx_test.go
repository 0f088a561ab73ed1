package randx

import (
	"math"
	"testing"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(7), New(7)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := New(8)
	same := 0
	a = New(7)
	for i := 0; i < 100; i++ {
		if a.Int63() == c.Int63() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("adjacent seeds too correlated: %d collisions", same)
	}
}

func TestDerive(t *testing.T) {
	if Derive(1, "a") == Derive(1, "b") {
		t.Error("different labels must derive different seeds")
	}
	if Derive(1, "a") != Derive(1, "a") {
		t.Error("Derive must be deterministic")
	}
	if Derive(1, "a") == Derive(2, "a") {
		t.Error("different parents must derive different seeds")
	}
}

func TestGammaMoments(t *testing.T) {
	r := New(11)
	for _, alpha := range []float64{0.5, 1, 2, 5, 10} {
		n := 60000
		sum, sum2 := 0.0, 0.0
		for i := 0; i < n; i++ {
			x := Gamma(r, alpha)
			if x < 0 {
				t.Fatalf("Gamma(%v) produced negative %v", alpha, x)
			}
			sum += x
			sum2 += x * x
		}
		mean := sum / float64(n)
		variance := sum2/float64(n) - mean*mean
		if math.Abs(mean-alpha) > 0.08*alpha+0.05 {
			t.Errorf("Gamma(%v) mean = %v, want ~%v", alpha, mean, alpha)
		}
		if math.Abs(variance-alpha) > 0.15*alpha+0.1 {
			t.Errorf("Gamma(%v) variance = %v, want ~%v", alpha, variance, alpha)
		}
	}
}

func TestGammaPanicsOnBadAlpha(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Gamma(0) must panic")
		}
	}()
	Gamma(New(1), 0)
}

func TestBetaMoments(t *testing.T) {
	r := New(13)
	cases := []struct{ a, b float64 }{{3, 1}, {1, 3}, {0.5, 0.5}, {2, 10}}
	for _, c := range cases {
		n := 60000
		sum := 0.0
		for i := 0; i < n; i++ {
			x := Beta(r, c.a, c.b)
			if x < 0 || x > 1 {
				t.Fatalf("Beta(%v,%v) out of range: %v", c.a, c.b, x)
			}
			sum += x
		}
		mean := sum / float64(n)
		want := c.a / (c.a + c.b)
		if math.Abs(mean-want) > 0.02 {
			t.Errorf("Beta(%v,%v) mean = %v, want ~%v", c.a, c.b, mean, want)
		}
	}
}

func TestBetaPDF(t *testing.T) {
	// Beta(1,1) is uniform: pdf == 1 on (0,1).
	for _, x := range []float64{0.1, 0.5, 0.9} {
		if math.Abs(BetaPDF(x, 1, 1)-1) > 1e-9 {
			t.Errorf("Beta(1,1) pdf at %v = %v, want 1", x, BetaPDF(x, 1, 1))
		}
	}
	if BetaPDF(0, 2, 2) != 0 || BetaPDF(1, 2, 2) != 0 || BetaPDF(-1, 2, 2) != 0 {
		t.Error("pdf outside (0,1) must be 0")
	}
	// Symmetry of Beta(0.5, 0.5).
	if math.Abs(BetaPDF(0.2, 0.5, 0.5)-BetaPDF(0.8, 0.5, 0.5)) > 1e-9 {
		t.Error("Beta(0.5,0.5) pdf must be symmetric")
	}
	// Integrates to ~1.
	total := 0.0
	steps := 100000
	for i := 1; i < steps; i++ {
		total += BetaPDF(float64(i)/float64(steps), 2, 10) / float64(steps)
	}
	if math.Abs(total-1) > 0.01 {
		t.Errorf("Beta(2,10) pdf integrates to %v, want ~1", total)
	}
}

func TestZipfBounds(t *testing.T) {
	r := New(17)
	z := NewZipf(100, 1.5)
	if z.n != 100 {
		t.Errorf("n = %d", z.n)
	}
	counts := make(map[int64]int)
	for i := 0; i < 50000; i++ {
		v := z.Draw(r)
		if v < 1 || v > 100 {
			t.Fatalf("Zipf out of bounds: %d", v)
		}
		counts[v]++
	}
	if counts[1] <= counts[2] || counts[2] <= counts[4] {
		t.Errorf("Zipf not decreasing: c1=%d c2=%d c4=%d", counts[1], counts[2], counts[4])
	}
}

func TestZipfZeroExponentIsUniform(t *testing.T) {
	r := New(19)
	z := NewZipf(10, 0)
	counts := make([]int, 11)
	n := 100000
	for i := 0; i < n; i++ {
		counts[z.Draw(r)]++
	}
	for k := 1; k <= 10; k++ {
		frac := float64(counts[k]) / float64(n)
		if math.Abs(frac-0.1) > 0.01 {
			t.Errorf("Zipf(s=0) P(%d) = %v, want ~0.1", k, frac)
		}
	}
}

func TestZipfPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewZipf(0, 1) must panic")
		}
	}()
	NewZipf(0, 1)
}

func TestUniformInt(t *testing.T) {
	r := New(23)
	if UniformInt(r, 1) != 1 || UniformInt(r, 0) != 1 {
		t.Error("degenerate UniformInt must return 1")
	}
	for i := 0; i < 1000; i++ {
		v := UniformInt(r, 6)
		if v < 1 || v > 6 {
			t.Fatalf("UniformInt out of range: %d", v)
		}
	}
}
