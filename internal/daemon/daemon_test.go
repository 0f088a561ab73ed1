package daemon

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"monsoon/internal/core"
	"monsoon/internal/cost"
	"monsoon/internal/engine"
	"monsoon/internal/harness"
	"monsoon/internal/prior"
	"monsoon/internal/query"
	"monsoon/internal/randx"
	"monsoon/internal/stats"
	"monsoon/internal/table"
	"monsoon/internal/value"
)

// The daemon under test: built once (tiny TPC-H generation is the expensive
// part) and shared by every test. Tests that mutate shared state (admission
// semaphore) restore it before returning.
var (
	tsOnce sync.Once
	tsSrv  *Server
	tsErr  error
)

func testServer(t testing.TB) *Server {
	t.Helper()
	tsOnce.Do(func() {
		// MaxConcurrent must exceed the concurrency test's 9 racing clients
		// so only TestQueryAdmissionFull (which fills the slots itself) sees
		// 429s.
		// The generous deadline ceiling keeps slow -race runs from tripping
		// the scale's default budget.
		tsSrv, tsErr = New(Config{Bench: "tpch", MaxConcurrent: 16,
			DefaultTimeout: 5 * time.Minute})
	})
	if tsErr != nil {
		t.Fatalf("building test daemon: %v", tsErr)
	}
	return tsSrv
}

func doJSON(t *testing.T, h http.Handler, method, path, body string) (*httptest.ResponseRecorder, QueryResponse) {
	t.Helper()
	var rd *strings.Reader
	if body != "" {
		rd = strings.NewReader(body)
	} else {
		rd = strings.NewReader("")
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var qr QueryResponse
	_ = json.Unmarshal(rec.Body.Bytes(), &qr)
	return rec, qr
}

// TestQueryEndpointDeterministic: the serving-path determinism contract as a
// client sees it — repeated requests for the same query return the identical
// result hash, and the replay goes through the shared plan cache.
func TestQueryEndpointDeterministic(t *testing.T) {
	h := testServer(t).Handler()
	rec1, qr1 := doJSON(t, h, "GET", "/query?query=tpch-q3", "")
	if rec1.Code != http.StatusOK {
		t.Fatalf("first request: status %d: %s", rec1.Code, rec1.Body.String())
	}
	if qr1.ResultHash == "" || !strings.HasPrefix(qr1.ResultHash, "fnv1a:") {
		t.Fatalf("result hash %q, want fnv1a:...", qr1.ResultHash)
	}
	if qr1.Rows <= 0 || qr1.Executes <= 0 {
		t.Errorf("implausible result: rows=%d executes=%d", qr1.Rows, qr1.Executes)
	}

	rec2, qr2 := doJSON(t, h, "GET", "/query?query=tpch-q3", "")
	if rec2.Code != http.StatusOK {
		t.Fatalf("second request: status %d", rec2.Code)
	}
	if qr2.ResultHash != qr1.ResultHash {
		t.Errorf("repeat request hash %s, first %s — serving path not deterministic",
			qr2.ResultHash, qr1.ResultHash)
	}
	if qr2.Rows != qr1.Rows || qr2.Aggregate != qr1.Aggregate || qr2.Produced != qr1.Produced {
		t.Errorf("repeat accounting diverged: %+v vs %+v", qr2, qr1)
	}
	if qr2.CacheHits == 0 {
		t.Errorf("repeat request made no cache hits (misses=%d); shared plan cache not engaged",
			qr2.CacheMisses)
	}
	if qr2.Seed != qr1.Seed {
		t.Errorf("derived per-query seed unstable: %d vs %d", qr2.Seed, qr1.Seed)
	}
}

// TestQueryConcurrentClientsIdenticalHashes is the cross-client determinism
// check: many goroutines racing the same named queries through one handler
// must all see identical hashes.
func TestQueryConcurrentClientsIdenticalHashes(t *testing.T) {
	h := testServer(t).Handler()
	queries := []string{"tpch-q3", "tpch-q5", "tpch-q10"}
	const perQuery = 3

	type got struct {
		query, hash string
		code        int
	}
	results := make([]got, len(queries)*perQuery)
	var wg sync.WaitGroup
	for i := range results {
		q := queries[i%len(queries)]
		wg.Add(1)
		go func(i int, q string) {
			defer wg.Done()
			rec, qr := doJSON(t, h, "GET", "/query?query="+q, "")
			results[i] = got{query: q, hash: qr.ResultHash, code: rec.Code}
		}(i, q)
	}
	wg.Wait()

	hashes := make(map[string]map[string]bool)
	for _, r := range results {
		if r.code != http.StatusOK {
			t.Fatalf("%s: status %d", r.query, r.code)
		}
		if hashes[r.query] == nil {
			hashes[r.query] = make(map[string]bool)
		}
		hashes[r.query][r.hash] = true
	}
	for q, hs := range hashes {
		if len(hs) != 1 {
			t.Errorf("%s: %d distinct hashes across concurrent clients: %v", q, len(hs), hs)
		}
	}
}

// TestReleasedRepliesMatchUnreleasedRuns: the daemon gives each query's
// engine memory back once it has hashed the reply, and the queries after it
// write their rows into that memory. Eight clients run the TPC-H mix and the
// UDF mix at once — under the race detector the engine poisons every slab it
// gets back — and every result_hash must equal the hash of the same query run
// in-process and never released.
func TestReleasedRepliesMatchUnreleasedRuns(t *testing.T) {
	udf, err := New(Config{Bench: "udf", MaxConcurrent: 8, DefaultTimeout: 5 * time.Minute})
	if err != nil {
		t.Fatalf("building udf daemon: %v", err)
	}
	for _, s := range []*Server{testServer(t), udf} {
		names := s.QueryNames()
		want := make(map[string]string, len(names))
		for _, name := range names {
			nq, sc := s.queries[name], s.cfg.Scale
			res, err := core.Run(nq.q, nq.eng, &engine.Budget{}, core.Config{Prior: prior.Default(),
				Iterations: sc.MCTSIterations, Seed: randx.Derive(sc.Seed, "monsoond/"+name), Stats: stats.New()})
			if err != nil {
				t.Fatalf("%s in-process: %v", name, err)
			}
			want[name] = hashRelation(res.Output)
		}
		h := s.Handler()
		var wg sync.WaitGroup
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range names {
					name := names[(i+3*c)%len(names)]
					rec, qr := doJSON(t, h, "GET", "/query?query="+name, "")
					if rec.Code != http.StatusOK || qr.ResultHash != want[name] {
						t.Errorf("client %d %s: status %d hash %s, the unreleased run hashes %s", c, name, rec.Code, qr.ResultHash, want[name])
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestQueryBadRequests pins the 4xx surface: every malformed request is
// refused with a JSON error and never reaches execution.
func TestQueryBadRequests(t *testing.T) {
	h := testServer(t).Handler()
	cases := []struct {
		name, method, path, body string
		want                     int
	}{
		{"no query named", "GET", "/query", "", http.StatusBadRequest},
		{"unknown query", "GET", "/query?query=no-such-query", "", http.StatusBadRequest},
		{"malformed body", "POST", "/query", "{not json", http.StatusBadRequest},
		{"empty body object", "POST", "/query", "{}", http.StatusBadRequest},
		{"bad sql", "POST", "/query", `{"sql": "SELEC COUNT(*) FROM nope"}`, http.StatusBadRequest},
		{"bad method", "DELETE", "/query", "", http.StatusMethodNotAllowed},
	}
	for _, c := range cases {
		rec, _ := doJSON(t, h, c.method, c.path, c.body)
		if rec.Code != c.want {
			t.Errorf("%s: status %d, want %d (%s)", c.name, rec.Code, c.want, rec.Body.String())
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body not JSON with error field: %s", c.name, rec.Body.String())
		}
	}
}

// TestQueryAdhocSQL: the /query sql path parses and executes an ad-hoc
// statement against the primary catalog.
func TestQueryAdhocSQL(t *testing.T) {
	h := testServer(t).Handler()
	rec, qr := doJSON(t, h, "POST", "/query",
		`{"sql": "SELECT COUNT(*) FROM lineitem l WHERE l.l_quantity = 1", "name": "adhoc-count"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("adhoc sql: status %d: %s", rec.Code, rec.Body.String())
	}
	if qr.Query != "adhoc-count" {
		t.Errorf("query label %q, want adhoc-count", qr.Query)
	}
	if qr.ResultHash == "" {
		t.Error("adhoc result carries no hash")
	}
}

// TestQueryBudgetExceeded: a request-tightened tuple budget that cannot
// possibly be met maps to 504 with the budget error in the body. A cap of one
// produced object trips on the first scan whether the picks come from MCTS or
// from the plan cache, however fast the host plans, and the test's own server
// keeps other tests' requests out of its cache. The deadline trip is core's
// (TestPlanRoundDeadline, TestExecuteRoundDeadlineBetweenTrees) and
// TestRequestTimeoutNeverLoosens'.
func TestQueryBudgetExceeded(t *testing.T) {
	srv, err := New(Config{Bench: "tpch", MaxConcurrent: 1, DefaultTimeout: 5 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	rec, qr := doJSON(t, srv.Handler(), "POST", "/query", `{"query": "tpch-q3", "max_tuples": 1}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", rec.Code, rec.Body.String())
	}
	if !strings.Contains(qr.Error, "budget") {
		t.Errorf("error %q does not name the budget", qr.Error)
	}
}

// TestRequestTimeoutNeverLoosens: a request's timeout_ms only tightens the
// daemon's ceiling. One so large that it would wrap converted to a Duration
// first must still leave the budget with the ceiling's deadline.
func TestRequestTimeoutNeverLoosens(t *testing.T) {
	const ceiling = 3 * time.Second
	s := &Server{cfg: Config{DefaultTimeout: ceiling}}
	for _, ms := range []int64{1, 1e13, math.MaxInt64} {
		b := s.budgetFor(QueryRequest{Query: "tpch-q3", TimeoutMS: ms})
		if b.Deadline.IsZero() || b.Deadline.After(time.Now().Add(ceiling)) {
			t.Errorf("timeout_ms %d: deadline %v, want one no later than %v from now", ms, b.Deadline, ceiling)
		}
	}
}

// TestQueryBodyTooLarge: a POST body over the limit gets 413 with the usual
// JSON error before admission, so the next request is served.
func TestQueryBodyTooLarge(t *testing.T) {
	h := testServer(t).Handler()
	rec, _ := doJSON(t, h, "POST", "/query", `{"query": "tpch-q3", "name": "`+strings.Repeat("x", 2<<20)+`"}`)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("2 MiB body: status %d, want 413", rec.Code)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Errorf("413 body not JSON with error field: %s", rec.Body.String())
	}
	if rec, _ := doJSON(t, h, "GET", "/query?query=tpch-q3", ""); rec.Code != http.StatusOK {
		t.Errorf("after a 413: status %d, want 200 (%s)", rec.Code, rec.Body.String())
	}
}

// TestQueryBadColumnSharded: a predicate over a column that does not exist is
// a per-query 500 carrying the engine's error — as a residual at a join whose
// build leaf has already opened and as a pushed-down selection — and the
// failed request gives its admission slot back (the daemon has exactly one).
func TestQueryBadColumnSharded(t *testing.T) {
	srv, err := New(Config{Bench: "tpch", MaxConcurrent: 1, DefaultTimeout: 5 * time.Minute})
	if err != nil {
		t.Fatalf("building the daemon: %v", err)
	}
	for _, where := range []string{"l.nosuch = o.nosuch2", "l.nosuch = 1"} {
		body := fmt.Sprintf(`{"sql": "SELECT COUNT(*) FROM orders o, lineitem l WHERE l.l_orderkey = o.o_orderkey AND %s"}`, where)
		rec, qr := doJSON(t, srv.Handler(), "POST", "/query", body)
		if rec.Code != http.StatusInternalServerError || !strings.HasPrefix(qr.Error, "engine: ") {
			t.Fatalf("%s: status %d error %q, want 500 with the engine's error", where, rec.Code, qr.Error)
		}
		if rec, _ := doJSON(t, srv.Handler(), "GET", "/query?query=tpch-q3", ""); rec.Code != http.StatusOK {
			t.Errorf("%s: status %d on the request after the failure, want 200", where, rec.Code)
		}
	}
}

// TestQueryAdmissionFull: with every admission slot held, a valid request is
// refused with 429 + Retry-After instead of queueing, and the slots'
// release restores service.
func TestQueryAdmissionFull(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	for i := 0; i < cap(s.sem); i++ {
		s.sem <- struct{}{}
	}
	rec, _ := doJSON(t, h, "GET", "/query?query=tpch-q2", "")
	for i := 0; i < cap(s.sem); i++ {
		<-s.sem
	}
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d with full admission queue, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}

	rec2, _ := doJSON(t, h, "GET", "/query?query=tpch-q2", "")
	if rec2.Code != http.StatusOK {
		t.Errorf("status %d after slots released, want 200", rec2.Code)
	}
}

// TestQueriesAndHealthRoutes: the discovery and liveness endpoints, plus the
// mounted telemetry routes, answer on the daemon handler.
func TestQueriesAndHealthRoutes(t *testing.T) {
	h := testServer(t).Handler()

	rec, _ := doJSON(t, h, "GET", "/queries", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("/queries: status %d", rec.Code)
	}
	var names []string
	if err := json.Unmarshal(rec.Body.Bytes(), &names); err != nil {
		t.Fatalf("/queries body: %v", err)
	}
	if len(names) == 0 || names[0] != "tpch-q10" {
		t.Errorf("/queries = %v, want sorted list starting with tpch-q10", names)
	}

	rec, _ = doJSON(t, h, "GET", "/healthz", "")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"status":"ok"`) {
		t.Errorf("/healthz: %d %s", rec.Code, rec.Body.String())
	}

	rec, _ = doJSON(t, h, "GET", "/metrics", "")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "monsoond_requests") {
		t.Errorf("/metrics missing daemon counters:\n%.300s", rec.Body.String())
	}
	rec, _ = doJSON(t, h, "GET", "/debug/vars", "")
	if rec.Code != http.StatusOK {
		t.Errorf("/debug/vars: status %d", rec.Code)
	}
}

// TestFreeListCountersOnScrape: both metric documents end with the engine's
// free-list counters, read at scrape time. A warm pass over the TPC-H mix
// takes its slabs, join tables and row-header buffers from what the pass
// before it released, so the hits rise between two scrapes around it; the
// daemon's registry never holds the counters.
func TestFreeListCountersOnScrape(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	pass := func() {
		for _, name := range s.QueryNames() {
			if rec, _ := doJSON(t, h, "GET", "/query?query="+name, ""); rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d", name, rec.Code)
			}
		}
	}
	vars := func() map[string]any {
		rec, _ := doJSON(t, h, "GET", "/debug/vars", "")
		var v map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			t.Fatalf("/debug/vars: %v", err)
		}
		return v
	}
	pass()
	before := vars()
	pass()
	after := vars()
	rec, _ := doJSON(t, h, "GET", "/metrics", "")
	body := rec.Body.String()
	for _, list := range []string{"slabs", "rows", "slots", "entries", "links", "filters"} {
		for _, kind := range []string{"hits", "misses"} {
			if name := "engine_freelist_" + list + "_" + kind; !strings.Contains(body, "# TYPE "+name+" counter\n") {
				t.Errorf("/metrics lacks the %s counter", name)
			}
			if _, ok := after["engine.freelist."+list+"."+kind]; !ok {
				t.Errorf("/debug/vars lacks engine.freelist.%s.%s", list, kind)
			}
		}
	}
	for _, list := range []string{"slabs", "rows", "slots", "entries", "links"} {
		hits := "engine.freelist." + list + ".hits"
		if b, a := before[hits].(float64), after[hits].(float64); a <= b {
			t.Errorf("%s: %v before a warm pass, %v after it: no take found a released buffer", hits, before[hits], after[hits])
		}
	}
	for _, e := range s.reg.Snapshot() {
		if strings.HasPrefix(e.Name, "engine.freelist.") {
			t.Errorf("scraping wrote %s into the registry", e.Name)
		}
	}
}

// TestHardenStatsKeepsPlanCache: with HardenStats on, every session plans
// with the configured cost profile, which stays fixed for the daemon's life,
// so a query's plan-cache keys stay the same across repeats once its hardened
// statistics settle, and the 6th request of tpch-q3 and of tpch-q10 takes
// every pick from the cache. A profile refitted after each request would
// change every key's profile fingerprint, and every request would miss. Each
// query runs on a server of its own. tpch-q5 is left out: its hardened
// statistics cross buckets through its first five requests, so whether its
// 6th takes every pick from the cache hangs on one request.
func TestHardenStatsKeepsPlanCache(t *testing.T) {
	profile := &cost.CostProfile{
		Scan: cost.Rate{SecondsPerObject: 2e-9}, Reuse: cost.Rate{SecondsPerObject: 1e-9},
		HashBuild: cost.Rate{SecondsPerObject: 5e-9}, HashProbe: cost.Rate{SecondsPerObject: 3e-9},
		NestedLoop: cost.Rate{SecondsPerObject: 7e-9}, Sigma: cost.Rate{SecondsPerObject: 4e-9},
		Materialize: cost.Rate{SecondsPerObject: 1e-9},
	}
	for _, name := range []string{"tpch-q3", "tpch-q10"} {
		srv, err := New(Config{Bench: "tpch", MaxConcurrent: 4, DefaultTimeout: 5 * time.Minute,
			HardenStats: true, Session: core.Config{Profile: profile}})
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		var hits []int
		var rec *httptest.ResponseRecorder
		var qr QueryResponse
		for i := 0; i < 6; i++ {
			rec, qr = doJSON(t, h, "GET", "/query?query="+name, "")
			if rec.Code != http.StatusOK {
				t.Fatalf("%s request %d: status %d: %s", name, i+1, rec.Code, rec.Body.String())
			}
			hits = append(hits, qr.CacheHits)
		}
		if qr.CacheHits != qr.Actions || qr.CacheMisses != 0 {
			t.Errorf("%s: 6th request took %d of %d picks from the cache, %d misses (hits per request %v)",
				name, qr.CacheHits, qr.Actions, qr.CacheMisses, hits)
		}
	}
}

// TestHardenStatsStaysWithItsQuery: hardened statistics go back to the seed
// store of the query's own shape and nowhere else. TPC-H Q3 and Q5 both mount
// orders as o, under different year filters, and number their terms each from
// 0: a single shared seed store handed Q5 the count of Q3's filtered o as its
// own, and Q3's measured distinct counts as answers for Q5's terms.
func TestHardenStatsStaysWithItsQuery(t *testing.T) {
	srv, err := New(Config{Bench: "tpch", MaxConcurrent: 4,
		DefaultTimeout: 5 * time.Minute, HardenStats: true})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	q3, q5 := srv.queries["tpch-q3"].q, srv.queries["tpch-q5"].q
	if rec, _ := doJSON(t, h, "GET", "/query?query=tpch-q3", ""); rec.Code != http.StatusOK {
		t.Fatalf("tpch-q3: status %d: %s", rec.Code, rec.Body.String())
	}
	seed3 := srv.seedFor(q3)
	if _, ok := seed3.Count("o"); !ok {
		t.Fatalf("tpch-q3 hardened no count of its filtered orders:\n%s", seed3)
	}
	if seed5 := srv.seedFor(q5); seed5.CountEntries()+seed5.MeasuredEntries() != 0 {
		t.Fatalf("tpch-q5's seed store holds tpch-q3's facts before tpch-q5 ever ran:\n%s", seed5)
	}
	before := seed3.String()
	if rec, _ := doJSON(t, h, "GET", "/query?query=tpch-q5", ""); rec.Code != http.StatusOK {
		t.Fatalf("tpch-q5: status %d: %s", rec.Code, rec.Body.String())
	}
	if after := seed3.String(); after != before {
		t.Errorf("tpch-q5 wrote into tpch-q3's seed store:\nbefore\n%s\nafter\n%s", before, after)
	}
	if seed5 := srv.seedFor(q5); seed5.CountEntries() == 0 {
		t.Error("tpch-q5 hardened nothing into its own seed store")
	}
	if core.QueryShape(q3) == core.QueryShape(q5) {
		t.Fatal("tpch-q3 and tpch-q5 share a shape")
	}
}

// TestHashRelation pins the digest: stable empty-input rendering, field/row
// separator sensitivity, and process-independence (pure function of values).
func TestHashRelation(t *testing.T) {
	if got := hashRelation(nil); got != fmt.Sprintf("fnv1a:%016x", uint64(0xcbf29ce484222325)) {
		t.Errorf("nil relation hash %s, want the FNV-1a offset basis", got)
	}
	rel := func(rows ...table.Row) *table.Relation {
		return &table.Relation{Rows: rows}
	}
	a := rel(table.Row{value.Int(1), value.Int(2)})
	b := rel(table.Row{value.Int(1)}, table.Row{value.Int(2)})
	if hashRelation(a) == hashRelation(b) {
		t.Error("row boundaries do not affect the hash: [1,2] aliases [1],[2]")
	}
	if hashRelation(a) != hashRelation(rel(table.Row{value.Int(1), value.Int(2)})) {
		t.Error("equal relations hash differently")
	}
}

// stringDigest is the result digest as it was first written: every value
// rendered with String, converted to bytes and written a write at a time.
// hashRelation must agree with it byte for byte, since clients and the
// benchmark's goldens compare result hashes across versions. (That String
// still renders what it always did is value.TestMatchesReference's to check.)
func stringDigest(rel *table.Relation) string {
	h := fnv.New64a()
	if rel != nil {
		for _, row := range rel.Rows {
			for _, v := range row {
				_, _ = h.Write([]byte(v.String()))
				_, _ = h.Write([]byte{0x1f})
			}
			_, _ = h.Write([]byte{0x1e})
		}
	}
	return fmt.Sprintf("fnv1a:%016x", h.Sum64())
}

// TestResultDigestMatchesStringDigest: the digest that renders into one
// buffer is the digest that rendered a string per value, on every kind —
// NULL, both bools, ints to the ends of their range, floats at ±0, NaN, ±Inf,
// beyond 2⁵³, subnormal and in exponent form, strings holding the very
// separators the digest writes, int lists — value by value and over random
// relations of them.
func TestResultDigestMatchesStringDigest(t *testing.T) {
	vals := []value.Value{
		value.Null(), value.Bool(true), value.Bool(false),
		value.Int(0), value.Int(-1), value.Int(42), value.Int(math.MaxInt64), value.Int(math.MinInt64),
		value.Float(0), value.Float(math.Copysign(0, -1)), value.Float(math.NaN()),
		value.Float(math.Inf(1)), value.Float(math.Inf(-1)), value.Float(1 << 53), value.Float(1<<53 + 2),
		value.Float(9007199254740993), value.Float(1e21), value.Float(1e300), value.Float(-0.1),
		value.Float(5e-324), value.Float(1.5e-7), value.Float(123456.789),
		value.String(""), value.String("a"), value.String("x\x1fy"), value.String("\x1e"), value.String("\x1f\x1e"),
		value.String("żółć"), value.String("NULL"),
		value.IntList(nil), value.IntList([]int64{7}), value.IntList([]int64{-3, 0, 1 << 62}),
	}
	for _, v := range vals {
		rel := &table.Relation{Rows: []table.Row{{v}}}
		if got, want := hashRelation(rel), stringDigest(rel); got != want {
			t.Errorf("%v (kind %v): digest %s, rendered strings %s", v, v.Kind(), got, want)
		}
	}
	rng := randx.New(35)
	for i := 0; i < 50; i++ {
		rows := make([]table.Row, rng.Intn(20))
		for r := range rows {
			rows[r] = make(table.Row, rng.Intn(6))
			for c := range rows[r] {
				rows[r][c] = vals[rng.Intn(len(vals))]
			}
		}
		rel := &table.Relation{Rows: rows}
		if got, want := hashRelation(rel), stringDigest(rel); got != want {
			t.Fatalf("relation %d: digest %s, rendered strings %s", i, got, want)
		}
	}
	if got, want := hashRelation(nil), stringDigest(nil); got != want {
		t.Errorf("nil relation: digest %s, rendered strings %s", got, want)
	}
}

// wideSQL joins n copies of nation in a chain on the nation key; every
// intermediate has nation's 25 rows, so only the planner feels the width.
func wideSQL(n int) string {
	var from, where []string
	for i := 0; i < n; i++ {
		from = append(from, fmt.Sprintf("nation n%02d", i))
		if i > 0 {
			where = append(where, fmt.Sprintf("n%02d.n_nationkey = n%02d.n_nationkey", i-1, i))
		}
	}
	return "SELECT COUNT(*) FROM " + strings.Join(from, ", ") + " WHERE " + strings.Join(where, " AND ")
}

// TestQueryRelationLimit walks an ad-hoc query across the alias-set limit:
// query.MaxAliases relations plan and answer, one more is the client's
// mistake — 400 with the typed error's message in the body, refused before
// admission, so the daemon's single slot is free for the next request.
func TestQueryRelationLimit(t *testing.T) {
	sc := harness.Tiny()
	sc.MCTSIterations = 1
	s, err := New(Config{Bench: "tpch", Scale: sc, MaxConcurrent: 1,
		DefaultTimeout: 5 * time.Minute})
	if err != nil {
		t.Fatalf("building daemon: %v", err)
	}
	h := s.Handler()
	post := func(n int) (*httptest.ResponseRecorder, QueryResponse) {
		body, _ := json.Marshal(QueryRequest{SQL: wideSQL(n), Name: fmt.Sprintf("wide%d", n)})
		return doJSON(t, h, "POST", "/query", string(body))
	}

	rec, qr := post(query.MaxAliases)
	if rec.Code != http.StatusOK || qr.Aggregate != 25 {
		t.Fatalf("%d relations: status %d aggregate %v, want 200 and nation's 25 rows (%s)",
			query.MaxAliases, rec.Code, qr.Aggregate, rec.Body.String())
	}

	rec, _ = post(query.MaxAliases + 1)
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("%d relations: body is not JSON: %s", query.MaxAliases+1, rec.Body.String())
	}
	if rec.Code != http.StatusBadRequest || !strings.Contains(e.Error, "65 relations, the limit is 64") {
		t.Fatalf("%d relations: status %d error %q, want 400 naming the limit", query.MaxAliases+1, rec.Code, e.Error)
	}
	if len(s.sem) != 0 {
		t.Errorf("%d admission slots held after the refusal, want 0", len(s.sem))
	}
	if rec, _ := doJSON(t, h, "GET", "/query?query=tpch-q3", ""); rec.Code != http.StatusOK {
		t.Errorf("status %d on the request after the refusal, want 200", rec.Code)
	}
}

// BenchmarkDaemonWarm serves the TPC-H mix through the handler, one named
// query per op in name order, after a pass that fills the plan cache: every
// timed request is a cache hit, so B/op is what the engine and the serving
// path allocate per warm request (run with -benchmem).
func BenchmarkDaemonWarm(b *testing.B) {
	s := testServer(b)
	h := s.Handler()
	names := s.QueryNames()
	serve := func(name string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/query?query="+name, nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("%s: status %d: %s", name, rec.Code, rec.Body.String())
		}
	}
	for _, name := range names {
		serve(name)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(names[i%len(names)])
	}
}
