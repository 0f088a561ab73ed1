package harness

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestEstimatesExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sc := Tiny()
	sc.IMDBQueryCount = 5
	sc.Timeout = 2 * time.Second
	r := &Runner{Scale: sc}
	var buf bytes.Buffer
	if err := r.Estimates(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"q-error", "Full stats", "Defaults", "p50", "p95"} {
		if !strings.Contains(out, want) {
			t.Errorf("estimates output missing %q:\n%s", want, out)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q := quantile(xs, 0.5); q != 6 {
		t.Errorf("p50 = %v", q)
	}
	if q := quantile(xs, 0.99); q != 10 {
		t.Errorf("p99 = %v", q)
	}
	if q := quantile([]float64{42}, 0.5); q != 42 {
		t.Errorf("singleton quantile = %v", q)
	}
}
