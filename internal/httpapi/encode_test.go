package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"uptimebroker/internal/broker"
	"uptimebroker/internal/catalog"
	"uptimebroker/internal/optimize"
	"uptimebroker/internal/reccache"
	"uptimebroker/internal/scenario"
)

// The card encoders must write exactly what encoding/json writes for
// the reference DTOs. Every test here holds them to that, byte for
// byte.

// referenceBody is json.Encoder's encoding of v, trailing newline
// included: the body writeJSON would send for it.
func referenceBody(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("reference encoding: %v", err)
	}
	return buf.Bytes()
}

// referenceRecommendation is the reference wire form of a
// recommendation route's body.
func referenceRecommendation(rec *broker.Recommendation, cache string) RecommendationResponse {
	resp := FromRecommendation(rec)
	resp.Cache = cache
	return resp
}

// referenceCards is the reference wire form of a frontier body.
func referenceCards(cards []broker.OptionCard) []OptionCardDTO {
	return FromRecommendation(&broker.Recommendation{Cards: cards}).Cards
}

// referenceBatch is the reference wire form of a batch body.
func referenceBatch(items []broker.BatchItem) BatchResponse {
	resp := BatchResponse{Results: make([]BatchItemDTO, len(items))}
	for i, item := range items {
		dto := BatchItemDTO{Index: item.Index}
		if item.Err != nil {
			dto.Error = batchItemError(item.Err)
			resp.Failed++
		} else {
			rr := FromRecommendation(item.Rec)
			dto.Recommendation = &rr
			resp.Succeeded++
		}
		resp.Results[i] = dto
	}
	return resp
}

// assertSameBytes fails with the first differing offset and its
// surroundings.
func assertSameBytes(t *testing.T, name string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-60, 0)
	t.Fatalf("%s: bodies differ at byte %d (len %d, want %d)\n got: %q\nwant: %q",
		name, i, len(got), len(want), got[lo:min(i+60, len(got))], want[lo:min(i+60, len(want))])
}

func newReferenceEngine(t testing.TB) *broker.Engine {
	t.Helper()
	cat := catalog.Default()
	e, err := broker.New(cat, broker.CatalogParams{Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func mustRecommend(t testing.TB, e *broker.Engine, req broker.Request) *broker.Recommendation {
	t.Helper()
	rec, err := e.Recommend(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// hostileStrings are names encoding/json must escape or pass through
// in a way a naive copy would get wrong.
var hostileStrings = []string{
	`<script>alert("x")</script>&amp;`,
	"less<than", "greater>than", "amp&ersand", `quote"only`, `back\only`,
	`back\slash "quoted"`,
	"controls \x00\x01\x07\b\f\n\r\t\x1f\x7f end",
	"separators \u2028 and \u2029",
	"invalid \xff\xfe utf-8 \xc3",
	"non-ASCII: café, 雲, ☁️",
	"",
}

// hostileCopy deep-copies rec with every name replaced by a hostile
// string, so no shared card is mutated.
func hostileCopy(rec *broker.Recommendation) *broker.Recommendation {
	out := *rec
	pick := func(i int) string { return hostileStrings[i%len(hostileStrings)] }
	out.System, out.Provider = pick(0), pick(5)
	out.Search.Strategy = pick(3)
	out.Cards = make([]broker.OptionCard, len(rec.Cards))
	for i, c := range rec.Cards {
		c.Choices = append([]broker.Choice(nil), c.Choices...)
		for j := range c.Choices {
			c.Choices[j].Component = pick(i + j)
			if c.Choices[j].TechID != "" {
				c.Choices[j].TechID = pick(i + 2*j + 1)
			}
		}
		out.Cards[i] = c
	}
	return &out
}

type recFixture struct {
	name string
	rec  *broker.Recommendation
}

// goldenRecommendations spans the shapes a recommendation body takes:
// several n, savings present and zero, min-risk omitted, the anytime
// certificate with finite and infinite gaps, and hostile names.
func goldenRecommendations(t *testing.T) []recFixture {
	t.Helper()
	e := newReferenceEngine(t)
	cs := broker.CaseStudy()
	fx := []recFixture{{"casestudy", mustRecommend(t, e, cs)}}
	if fx[0].rec.SavingsFraction == 0 {
		t.Fatal("fixture: case study should report savings")
	}

	noAsIs := cs
	noAsIs.AsIs = nil
	fx = append(fx, recFixture{"casestudy/no-as-is", mustRecommend(t, e, noAsIs)})

	asIsBest := cs
	asIsBest.AsIs = fx[0].rec.Best().Plan()
	zero := mustRecommend(t, e, asIsBest)
	if zero.AsIsOption == 0 || zero.SavingsFraction != 0 {
		t.Fatalf("fixture: as-is at the optimum should save nothing, got as-is %d savings %v", zero.AsIsOption, zero.SavingsFraction)
	}
	fx = append(fx, recFixture{"casestudy/as-is-is-best", zero})

	for _, n := range []int{1, 3, 8, 12} {
		fx = append(fx, recFixture{fmt.Sprintf("wide/n=%d", n), mustRecommend(t, e, wideWireRequest(n).ToBroker())})
	}

	unattainable := wideWireRequest(3).ToBroker()
	unattainable.SLA.UptimePercent = 99.99999
	rec := mustRecommend(t, e, unattainable)
	if rec.MinRiskOption != 0 {
		t.Fatalf("fixture: SLA %v should be unattainable, min-risk option %d", unattainable.SLA.UptimePercent, rec.MinRiskOption)
	}
	fx = append(fx, recFixture{"unattainable-sla", rec})

	for _, solver := range []optimize.SolverConfig{
		{Strategy: optimize.StrategyBeam, BeamWidth: 2, Budget: optimize.Budget{MaxEvaluations: 20}},
		{Strategy: optimize.StrategyLDS, MaxDiscrepancies: 1, Budget: optimize.Budget{MaxEvaluations: 20}},
		{Strategy: optimize.StrategyBounded, Epsilon: 0.2, Budget: optimize.Budget{MaxEvaluations: 20}},
		{Strategy: optimize.StrategyBounded},
	} {
		req := wideWireRequest(12).ToBroker()
		req.Solver = solver
		rec := mustRecommend(t, e, req)
		if !rec.Search.Approximate {
			t.Fatalf("fixture: %s run is not approximate", solver.Strategy)
		}
		fx = append(fx, recFixture{fmt.Sprintf("anytime/%s/max-evals=%d", solver.Strategy, solver.Budget.MaxEvaluations), rec})
	}
	// The symmetric wide instances always close their gap; a proven
	// but open gap (in 'e' form) and an unbounded one are set by hand.
	finiteGap := *fx[len(fx)-1].rec
	finiteGap.Search.Gap, finiteGap.Search.Optimal = 1.25e-7, false
	fx = append(fx, recFixture{"anytime/finite-gap", &finiteGap})
	infGap := finiteGap
	infGap.Search.Gap = math.Inf(1)
	fx = append(fx, recFixture{"anytime/infinite-gap", &infGap})

	// Floats across encoding/json's 'f'/'e' switch points.
	floats := *fx[0].rec
	floats.SLA.UptimePercent = 1e-7
	floats.SavingsFraction = -1e19
	floats.Cards = append([]broker.OptionCard(nil), floats.Cards...)
	for i, x := range []float64{1e-7, 9.99999e-7, 1e-6, 1e21, 9.999e20, 5e-324, math.MaxFloat64, math.Copysign(0, -1)} {
		c := &floats.Cards[i%len(floats.Cards)]
		c.SlippageHours, c.Uptime = x, -x/100
	}
	fx = append(fx, recFixture{"floats", &floats})

	fx = append(fx, recFixture{"hostile/casestudy", hostileCopy(fx[0].rec)})
	fx = append(fx, recFixture{"hostile/wide-n=8", hostileCopy(mustRecommend(t, e, wideWireRequest(8).ToBroker()))})
	return fx
}

func TestEncodeRecommendationGolden(t *testing.T) {
	for _, fx := range goldenRecommendations(t) {
		for _, cache := range []string{"", "hit", "miss", "shared"} {
			ref := referenceRecommendation(fx.rec, cache)
			name := fx.name + "/cache=" + cache

			var got bytes.Buffer
			if err := writeRecommendation(&got, fx.rec, cache); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			assertSameBytes(t, name, got.Bytes(), referenceBody(t, ref))

			raw, err := marshalRecommendation(fx.rec, cache)
			if err != nil {
				t.Fatalf("%s: marshal: %v", name, err)
			}
			want, err := json.Marshal(ref)
			if err != nil {
				t.Fatal(err)
			}
			assertSameBytes(t, name+"/marshal", raw, want)
		}
	}
}

func TestEncodeCardsGolden(t *testing.T) {
	e := newReferenceEngine(t)
	ctx := context.Background()
	fronts := map[string][]broker.OptionCard{"empty": {}}
	for name, req := range map[string]broker.Request{
		"casestudy": broker.CaseStudy(),
		"wide/n=8":  wideWireRequest(8).ToBroker(),
		"wide/n=12": wideWireRequest(12).ToBroker(),
	} {
		front, err := e.Pareto(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		fronts[name] = front
	}
	fronts["all-cards/wide-n=12"] = mustRecommend(t, e, wideWireRequest(12).ToBroker()).Cards
	fronts["hostile"] = hostileCopy(&broker.Recommendation{Cards: fronts["casestudy"]}).Cards

	for name, front := range fronts {
		var got bytes.Buffer
		if err := writeCards(&got, front); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertSameBytes(t, name, got.Bytes(), referenceBody(t, referenceCards(front)))

		raw, err := marshalCards(front)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(referenceCards(front))
		assertSameBytes(t, name+"/marshal", raw, want)
	}
}

func TestEncodeBatchGolden(t *testing.T) {
	e := newReferenceEngine(t)
	bad := wideWireRequest(3).ToBroker()
	bad.Base.Provider = "no-such-cloud"
	items := e.RecommendBatch(context.Background(), []broker.Request{
		broker.CaseStudy(), bad, wideWireRequest(8).ToBroker(),
	})
	if items[1].Err == nil {
		t.Fatal("fixture: unknown provider should fail its item")
	}
	items = append(items,
		broker.BatchItem{Index: 3, Err: context.Canceled},
		broker.BatchItem{Index: 4, Err: fmt.Errorf("wrapped: %w", context.DeadlineExceeded)},
		broker.BatchItem{Index: 5, Err: errors.New(hostileStrings[0] + hostileStrings[2] + hostileStrings[4])},
		broker.BatchItem{Index: 6, Rec: hostileCopy(items[0].Rec)},
	)
	for name, batch := range map[string][]broker.BatchItem{
		"mixed":      items,
		"all-failed": {items[1], items[3]},
		"empty":      {},
	} {
		var got bytes.Buffer
		if err := writeBatch(&got, batch); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertSameBytes(t, name, got.Bytes(), referenceBody(t, referenceBatch(batch)))
	}
}

// TestEncodeNonFiniteFails: a non-finite float is an error, as it is
// for encoding/json, with the same message.
func TestEncodeNonFiniteFails(t *testing.T) {
	base := mustRecommend(t, newReferenceEngine(t), broker.CaseStudy())
	approx := mustRecommend(t, newReferenceEngine(t), func() broker.Request {
		req := broker.CaseStudy()
		req.Solver.Strategy = optimize.StrategyBeam
		return req
	}())
	withCard := func(src *broker.Recommendation, edit func(*broker.OptionCard)) *broker.Recommendation {
		out := *src
		out.Cards = append([]broker.OptionCard(nil), src.Cards...)
		edit(&out.Cards[len(out.Cards)-1])
		return &out
	}
	for name, rec := range map[string]*broker.Recommendation{
		"uptime=NaN":    withCard(base, func(c *broker.OptionCard) { c.Uptime = math.NaN() }),
		"slippage=+Inf": withCard(base, func(c *broker.OptionCard) { c.SlippageHours = math.Inf(1) }),
		"sla=-Inf": func() *broker.Recommendation {
			r := *base
			r.SLA.UptimePercent = math.Inf(-1)
			return &r
		}(),
		"savings=NaN": func() *broker.Recommendation {
			r := *base
			r.SavingsFraction = math.NaN()
			return &r
		}(),
		"gap=NaN": func() *broker.Recommendation {
			r := *approx
			r.Search.Gap = math.NaN()
			return &r
		}(),
		"gap=-Inf": func() *broker.Recommendation {
			r := *approx
			r.Search.Gap = math.Inf(-1)
			return &r
		}(),
	} {
		_, wantErr := json.Marshal(referenceRecommendation(rec, ""))
		if wantErr == nil {
			t.Fatalf("%s: encoding/json accepted the value", name)
		}
		err := writeRecommendation(io.Discard, rec, "")
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%s: writeRecommendation error %v, want %v", name, err, wantErr)
		}
		if _, err := marshalRecommendation(rec, ""); err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%s: marshalRecommendation error %v, want %v", name, err, wantErr)
		}
		if name == "uptime=NaN" {
			if err := writeCards(io.Discard, rec.Cards); err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("%s: writeCards error %v, want %v", name, err, wantErr)
			}
		}
	}
}

// TestWriteRecommendationAllocsConstant: the encoder's allocations do
// not grow with the card count — n=12 has 4096 cards, so one per card
// would show. (Under the race detector sync.Pool drops some Puts, so a
// body may allocate a fresh pooled encoder.)
func TestWriteRecommendationAllocsConstant(t *testing.T) {
	e := newReferenceEngine(t)
	allocs := func(n int) float64 {
		rec := mustRecommend(t, e, wideWireRequest(n).ToBroker())
		return testing.AllocsPerRun(10, func() {
			if err := writeRecommendation(io.Discard, rec, "hit"); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(8), allocs(12)
	if small > 2 || large > 2 {
		t.Fatalf("allocations per body: n=8 %.0f, n=12 %.0f; want at most 2 whatever the size", small, large)
	}
}

// getBody performs one request and returns the response and its body.
func getBody(t *testing.T, ts *httptest.Server, method, path string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		payload, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", method, path, resp.StatusCode, got)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("%s %s: Content-Type %q", method, path, ct)
	}
	return resp, got
}

// TestCardRoutesMatchReference drives every card-emitting route, with
// and without the result cache, and holds each body to encoding/json
// of the reference DTOs computed on a separate engine.
func TestCardRoutesMatchReference(t *testing.T) {
	ref := newReferenceEngine(t)
	ctx := context.Background()
	caseStudy, wide12, wide8 := caseStudyWire(), wideWireRequest(12), wideWireRequest(8)
	bad := wideWireRequest(3)
	bad.Base.Provider = "no-such-cloud"

	for _, cached := range []bool{false, true} {
		var ts *httptest.Server
		if cached {
			ts, _, _ = newCachedTestServer(t)
		} else {
			ts, _, _ = newTestServer(t)
		}
		name := func(route string) string { return fmt.Sprintf("cached=%v %s", cached, route) }

		for _, c := range []struct {
			path string
			req  RecommendationRequest
		}{
			{"/v1/recommendations", caseStudy},
			{"/v2/recommendations", wide12},
			{"/v2/recommendations", wide12}, // a hit when cached
		} {
			resp, body := getBody(t, ts, http.MethodPost, c.path, c.req)
			want := referenceRecommendation(mustRecommend(t, ref, c.req.ToBroker()), resp.Header.Get("X-Cache"))
			assertSameBytes(t, name(c.path), body, referenceBody(t, want))
		}

		for _, path := range []string{"/v1/scenarios/casestudy/recommendation", "/v2/scenarios/casestudy/recommendation"} {
			resp, body := getBody(t, ts, http.MethodPost, path, nil)
			sc, err := scenario.ByName("casestudy", catalog.ProviderSoftLayerSim)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceRecommendation(mustRecommend(t, ref, sc.Request), resp.Header.Get("X-Cache"))
			assertSameBytes(t, name(path), body, referenceBody(t, want))
		}

		for _, c := range []struct {
			path string
			req  RecommendationRequest
		}{{"/v1/pareto", caseStudy}, {"/v2/pareto", wide8}} {
			_, body := getBody(t, ts, http.MethodPost, c.path, c.req)
			front, err := ref.Pareto(ctx, c.req.ToBroker())
			if err != nil {
				t.Fatal(err)
			}
			assertSameBytes(t, name(c.path), body, referenceBody(t, referenceCards(front)))
		}

		_, body := getBody(t, ts, http.MethodPost, "/v2/recommendations/batch",
			BatchRequest{Requests: []RecommendationRequest{caseStudy, bad, wide8}})
		items := ref.RecommendBatch(ctx, []broker.Request{caseStudy.ToBroker(), bad.ToBroker(), wide8.ToBroker()})
		assertSameBytes(t, name("batch"), body, referenceBody(t, referenceBatch(items)))
	}
}

// TestJobResultsMatchReference: recommend and pareto job results are
// encoded once, journaled as is, and served by GET /v2/jobs/{id} with
// the bytes encoding/json gives the reference DTOs — before and after
// a restart recovers them from the journal.
func TestJobResultsMatchReference(t *testing.T) {
	ref := newReferenceEngine(t)
	ctx := context.Background()
	dir := t.TempDir()
	ts, srv, client := newDurableServer(t, dir)

	want := map[string][]byte{}
	for _, c := range []struct {
		kind string
		req  RecommendationRequest
	}{
		{JobKindRecommend, caseStudyWire()},
		{JobKindRecommend, wideWireRequest(10)},
		{JobKindPareto, wideWireRequest(8)},
	} {
		job, err := client.SubmitJob(ctx, c.kind, c.req)
		if err != nil {
			t.Fatal(err)
		}
		if job, err = client.WaitJob(ctx, job.ID); err != nil || job.State != "done" {
			t.Fatalf("job %s: state %s, err %v", job.ID, job.State, err)
		}
		var v any
		if c.kind == JobKindRecommend {
			v = referenceRecommendation(mustRecommend(t, ref, c.req.ToBroker()), "")
		} else {
			front, err := ref.Pareto(ctx, c.req.ToBroker())
			if err != nil {
				t.Fatal(err)
			}
			v = referenceCards(front)
		}
		if want[job.ID], err = json.Marshal(v); err != nil {
			t.Fatal(err)
		}
	}

	check := func(ts *httptest.Server, phase string) {
		for id, w := range want {
			_, body := getBody(t, ts, http.MethodGet, "/v2/jobs/"+id, nil)
			var got struct{ Result json.RawMessage }
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatal(err)
			}
			assertSameBytes(t, phase+" "+id, got.Result, w)
		}
	}
	check(ts, "live")
	ts.Close()
	srv.Close()

	ts2, srv2, _ := newDurableServer(t, dir)
	defer func() { ts2.Close(); srv2.Close() }()
	check(ts2, "recovered")
}

// TestConcurrentCacheHitsEncodeShared: concurrent cache hits all
// encode the one cached *Recommendation; under -race this proves the
// encoder only reads it, and every body is the reference.
func TestConcurrentCacheHitsEncodeShared(t *testing.T) {
	cat := catalog.Default()
	engine, err := broker.New(cat, broker.CatalogParams{Catalog: cat}, broker.WithResultCache(reccache.New(reccache.Config{})))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(engine, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)

	req := wideWireRequest(8)
	getBody(t, ts, http.MethodPost, "/v2/recommendations", req) // warm
	want := referenceBody(t, referenceRecommendation(mustRecommend(t, newReferenceEngine(t), req.ToBroker()), "hit"))

	const clients, rounds = 8, 4
	bodies := make(chan []byte, clients*rounds)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				payload, _ := json.Marshal(req)
				resp, err := ts.Client().Post(ts.URL+"/v2/recommendations", "application/json", bytes.NewReader(payload))
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				bodies <- body
			}
		}()
	}
	wg.Wait()
	close(bodies)
	for body := range bodies {
		assertSameBytes(t, "concurrent hit", body, want)
	}
}

// FuzzAppendJSON holds the string, label and float appenders to
// encoding/json on arbitrary input.
func FuzzAppendJSON(f *testing.F) {
	for _, s := range hostileStrings {
		f.Add(s, 0.0)
	}
	for _, x := range []float64{1e-7, -1e-7, 1e-6, 1e21, 999999999999999999999, 1e-300, 5e-324, 99.95, -0.0, math.MaxFloat64} {
		f.Add("compute", x)
	}
	f.Fuzz(func(t *testing.T, s string, x float64) {
		want, _ := json.Marshal(s)
		if got := appendString([]byte("prefix"), s); string(got) != "prefix"+string(want) {
			t.Fatalf("appendString(%q) = %q, want %q", s, got[len("prefix"):], want)
		}

		choices := []broker.Choice{{Component: s, TechID: "t"}, {Component: "c", TechID: s}}
		want, _ = json.Marshal(broker.OptionCard{Choices: choices}.Label())
		if got := appendLabel(nil, choices); string(got) != string(want) {
			t.Fatalf("appendLabel(%q) = %q, want %q", s, got, want)
		}

		want, wantErr := json.Marshal(x)
		got, err := appendFloat([]byte("prefix"), x)
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("appendFloat(%v) error %v, encoding/json error %v", x, err, wantErr)
		case err != nil:
			if err.Error() != wantErr.Error() {
				t.Fatalf("appendFloat(%v) error %q, want %q", x, err, wantErr)
			}
		case string(got) != "prefix"+string(want):
			t.Fatalf("appendFloat(%v) = %q, want %q", x, got[len("prefix"):], want)
		}
	})
}

var benchRecs sync.Map // n → *broker.Recommendation

// BenchmarkWriteRecommendation splits a wide recommendation's body
// cost: the reference path (FromRecommendation plus encoding/json)
// against the append encoder, on the same cached domain result.
func BenchmarkWriteRecommendation(b *testing.B) {
	for _, path := range []string{"reference", "append"} {
		for _, n := range []int{12, 14} {
			b.Run(fmt.Sprintf("%s/n=%d", path, n), func(b *testing.B) {
				v, ok := benchRecs.Load(n)
				if !ok {
					v = mustRecommend(b, newReferenceEngine(b), wideWireRequest(n).ToBroker())
					benchRecs.Store(n, v)
				}
				rec := v.(*broker.Recommendation)
				var cw countingDiscard
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var err error
					if path == "reference" {
						err = json.NewEncoder(&cw).Encode(FromRecommendation(rec))
					} else {
						err = writeRecommendation(&cw, rec, "")
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				b.SetBytes(cw.n / int64(b.N))
			})
		}
	}
}

// countingDiscard discards what it is written, counting the bytes.
type countingDiscard struct{ n int64 }

func (c *countingDiscard) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}
