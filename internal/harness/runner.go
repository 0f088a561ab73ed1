package harness

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"monsoon/internal/randx"
)

// QueryResult pairs a query name with its outcome for one option.
type QueryResult struct {
	Query string
	Outcome
}

// BenchResult holds one benchmark's outcomes for several options, in suite
// order.
type BenchResult struct {
	Options []Option
	Results map[string][]QueryResult // option name → per-query results
	Timeout time.Duration
}

// RunBenchmark executes every option over every query under the scale's
// budget (Timeout, MaxTuples; 0 disables either) and seed. Queries run
// sequentially and deterministically:
// each (option, query) pair derives its own seed. Errors that are not budget
// overruns propagate — they indicate bugs, not slow queries.
func RunBenchmark(specs []QuerySpec, options []Option, sc Scale, progress io.Writer) (*BenchResult, error) {
	br := &BenchResult{Options: options, Results: map[string][]QueryResult{}, Timeout: sc.Timeout}
	for _, o := range options {
		for qi, spec := range specs {
			qseed := randx.Derive(sc.Seed, o.Name()+"/"+spec.Q.Name)
			out := o.Run(spec, sc.Timeout, sc.MaxTuples, qseed, nil)
			if out.Err != nil {
				return br, fmt.Errorf("harness: %s on %s: %w", o.Name(), spec.Q.Name, out.Err)
			}
			br.Results[o.Name()] = append(br.Results[o.Name()], QueryResult{Query: spec.Q.Name, Outcome: out})
			if progress != nil {
				status := fmtDur(out.Time)
				if out.TimedOut {
					status = "TO"
				}
				fmt.Fprintf(progress, "  [%s] %s (%d/%d): %s\n", o.Name(), spec.Q.Name, qi+1, len(specs), status)
			}
		}
	}
	return br, nil
}

// Agg is one aggregate row: timeout count, mean, median, max.
type Agg struct {
	TO     int
	Mean   time.Duration // valid when TO == 0
	Median time.Duration // TO entries enter as the timeout value
	Max    time.Duration // reported as TO when any query timed out
	HasTO  bool
}

// Aggregate computes the paper's TO/Mean/Median/Max row. Timed-out queries
// contribute the timeout value to the median (as the paper's "median 1200"
// rows do) and invalidate the mean (reported N/A).
func Aggregate(rs []QueryResult, timeout time.Duration) Agg {
	var a Agg
	times := make([]time.Duration, 0, len(rs))
	var sum time.Duration
	for _, r := range rs {
		t := r.Time
		if r.TimedOut {
			a.TO++
			if timeout > 0 {
				t = timeout
			}
		}
		times = append(times, t)
		sum += t
	}
	a.HasTO = a.TO > 0
	if len(times) == 0 {
		return a
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	a.Median = times[len(times)/2]
	if len(times)%2 == 0 {
		a.Median = (times[len(times)/2-1] + times[len(times)/2]) / 2
	}
	a.Max = times[len(times)-1]
	if a.TO == 0 {
		a.Mean = sum / time.Duration(len(times))
	}
	return a
}

// RelativeBuckets computes Table 4's rows: the share of queries whose time is
// <90%, within [90%,110%), or >110% of the baseline option's time on the same
// query. A timed-out query lands in the >1.1 bucket.
func RelativeBuckets(rs, baseline []QueryResult) (below, within, above float64) {
	base := map[string]QueryResult{}
	for _, b := range baseline {
		base[b.Query] = b
	}
	n := 0
	var lo, mid, hi int
	for _, r := range rs {
		b, ok := base[r.Query]
		if !ok || b.TimedOut || b.Time == 0 {
			continue
		}
		n++
		if r.TimedOut {
			hi++
			continue
		}
		ratio := float64(r.Time) / float64(b.Time)
		switch {
		case ratio < 0.9:
			lo++
		case ratio < 1.1:
			mid++
		default:
			hi++
		}
	}
	if n == 0 {
		return 0, 0, 0
	}
	return 100 * float64(lo) / float64(n), 100 * float64(mid) / float64(n), 100 * float64(hi) / float64(n)
}

// TopExpensive returns the names of the k queries with the largest baseline
// times (Table 5's "20 most expensive" selection).
func TopExpensive(baseline []QueryResult, k int) map[string]bool {
	sorted := append([]QueryResult(nil), baseline...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Time > sorted[j].Time })
	if k > len(sorted) {
		k = len(sorted)
	}
	out := map[string]bool{}
	for _, r := range sorted[:k] {
		out[r.Query] = true
	}
	return out
}

// Filter keeps only the named queries.
func Filter(rs []QueryResult, keep map[string]bool) []QueryResult {
	var out []QueryResult
	for _, r := range rs {
		if keep[r.Query] {
			out = append(out, r)
		}
	}
	return out
}

func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3fs", d.Seconds())
}

func fmtAgg(a Agg, timeout time.Duration) (mean, median, max string) {
	if a.HasTO {
		mean = "N/A"
	} else {
		mean = fmtDur(a.Mean)
	}
	median = fmtDur(a.Median)
	if a.HasTO && a.Max >= timeout && timeout > 0 {
		max = "TO"
	} else {
		max = fmtDur(a.Max)
	}
	return
}

// qerrCols pools the per-run join q-error summaries of one option's results
// into a campaign-wide geometric mean, maximum, and miss count. Each run
// contributes its geometric mean weighted by the number of finite q-errors
// behind it (recovering the pooled log-sum), so queries with more joins count
// proportionally; unboundedly wrong estimates (an estimated-nonempty join
// that came back empty, or vice versa) are tallied in the miss column instead
// of rendering the aggregates as "inf". Options that record no estimates
// render "-".
func qerrCols(rs []QueryResult) (geo, max, miss string) {
	logSum, mx := 0.0, 0.0
	n, misses := 0, 0
	any := false
	for _, r := range rs {
		if r.QErrJoins == 0 {
			continue
		}
		any = true
		misses += r.QErrMisses
		if fin := r.QErrJoins - r.QErrMisses; fin > 0 {
			logSum += math.Log(r.QErrGeo) * float64(fin)
			n += fin
		}
		if r.QErrMax > mx {
			mx = r.QErrMax
		}
	}
	if !any {
		return "-", "-", "-"
	}
	geo, max = "-", "-"
	if n > 0 {
		geo = fmt.Sprintf("%.2f", math.Exp(logSum/float64(n)))
		max = fmt.Sprintf("%.3g", mx)
	}
	return geo, max, fmt.Sprintf("%d", misses)
}

// geoMeanProduced reports the geometric mean of tuples produced — a
// hardware-independent companion metric printed under each table so the
// relative shapes survive machines with different absolute speeds.
func geoMeanProduced(rs []QueryResult) float64 {
	if len(rs) == 0 {
		return 0
	}
	logSum := 0.0
	for _, r := range rs {
		logSum += math.Log(r.Produced + 1)
	}
	return math.Exp(logSum / float64(len(rs)))
}
