package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"uptimebroker/internal/optimize"
)

// TestSolverWireBackCompat is the wire half of the config-redesign
// back-compat contract: a request spelling only the deprecated flat
// "strategy" field must encode byte-identically to the pre-redesign
// wire form (no "solver" member appears), and an exact run's response
// must not grow any certificate members — old clients and the job
// journal see unchanged bytes.
func TestSolverWireBackCompat(t *testing.T) {
	req := caseStudyWire()
	req.Strategy = optimize.StrategyPruned

	encoded, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(encoded, []byte(`"solver"`)) {
		t.Fatalf("flat-only request encodes a solver member: %s", encoded)
	}

	// The v2 job journal persists the wire request and re-decodes it on
	// recovery; the flat spelling must survive that round trip exactly.
	var decoded RecommendationRequest
	if err := json.Unmarshal(encoded, &decoded); err != nil {
		t.Fatal(err)
	}
	reencoded, err := json.Marshal(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encoded, reencoded) {
		t.Fatalf("flat request did not round-trip byte-identically:\n%s\n%s", encoded, reencoded)
	}

	_, client, _ := newTestServer(t)
	resp, err := client.Recommend(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Search.Strategy != optimize.StrategyPruned {
		t.Fatalf("flat strategy echoed as %q", resp.Search.Strategy)
	}
	body, err := json.Marshal(resp.Search)
	if err != nil {
		t.Fatal(err)
	}
	for _, member := range []string{"approximate", "bound_usd", "gap", "optimal", "budget_exhausted"} {
		if bytes.Contains(body, []byte(`"`+member+`"`)) {
			t.Fatalf("exact run's search stats grew a %q member: %s", member, body)
		}
	}
}

// TestSolverWireRoundTrip: the nested spec survives a marshal cycle
// with every knob intact — the fidelity the job journal depends on.
func TestSolverWireRoundTrip(t *testing.T) {
	req := caseStudyWire()
	req.Solver = &SolverConfigDTO{
		Strategy:         optimize.StrategyBounded,
		BudgetMS:         250,
		MaxEvaluations:   9999,
		BeamWidth:        32,
		MaxDiscrepancies: 3,
		Epsilon:          0.125,
	}
	encoded, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var decoded RecommendationRequest
	if err := json.Unmarshal(encoded, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Solver == nil || *decoded.Solver != *req.Solver {
		t.Fatalf("solver spec round-tripped as %+v, want %+v", decoded.Solver, req.Solver)
	}
}

// TestSolverUnknownFieldRejected: a mistyped knob inside the "solver"
// object is a 400 with the dedicated invalid_solver problem code, and
// the offending field is named. Unknown fields elsewhere in the body
// stay tolerated (forward compatibility is per-object, not global).
func TestSolverUnknownFieldRejected(t *testing.T) {
	ts, _, _ := newTestServer(t)

	body := `{"base": {"name": "x", "provider": "industry", "components": []},
	          "sla_percent": 98,
	          "solver": {"strategy": "beam", "beamwidth": 3}}`
	resp, err := ts.Client().Post(ts.URL+"/v1/recommendations", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var prob Problem
	if err := json.NewDecoder(resp.Body).Decode(&prob); err != nil {
		t.Fatal(err)
	}
	if prob.Code != CodeInvalidSolver {
		t.Fatalf("problem code %q, want %q", prob.Code, CodeInvalidSolver)
	}
	if !strings.Contains(prob.Detail, "beamwidth") {
		t.Fatalf("detail %q does not name the unknown field", prob.Detail)
	}

	// Top-level unknown fields remain tolerated.
	tolerant := `{"base": {"name": "x", "provider": "industry", "components": []},
	              "sla_percent": 98, "future_field": true}`
	resp2, err := ts.Client().Post(ts.URL+"/v1/recommendations", "application/json", strings.NewReader(tolerant))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode == http.StatusBadRequest {
		t.Fatal("top-level unknown field rejected; only the solver object is strict")
	}
}

// TestSolverContradictionRejected: flat and nested strategies that
// disagree are refused with a problem response naming both spellings.
func TestSolverContradictionRejected(t *testing.T) {
	_, client, _ := newTestServer(t)
	req := caseStudyWire()
	req.Strategy = optimize.StrategyPruned
	req.Solver = &SolverConfigDTO{Strategy: optimize.StrategyBeam}
	_, err := client.Recommend(context.Background(), req)
	apiErr, ok := err.(*APIError)
	if !ok {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if apiErr.Status != http.StatusUnprocessableEntity || apiErr.Code != CodeInvalidRequest {
		t.Fatalf("problem = %d/%s, want 422/%s", apiErr.Status, apiErr.Code, CodeInvalidRequest)
	}
	if !strings.Contains(apiErr.Detail, "contradicts") {
		t.Fatalf("detail %q does not explain the contradiction", apiErr.Detail)
	}
}

// TestUnknownStrategyProblemDetail pins the unknown-strategy problem
// byte for byte: the detail names the rejected strategy and lists the
// full strategy set in sorted order, for both spellings of the field.
func TestUnknownStrategyProblemDetail(t *testing.T) {
	_, client, _ := newTestServer(t)
	const want = `broker: unknown strategy "simulated-annealing" (choose from ` +
		`[auto beam bounded branch-and-bound exhaustive lds parallel-pruned pruned], or leave empty for auto)`
	flat := caseStudyWire()
	flat.Strategy = "simulated-annealing"
	nested := caseStudyWire()
	nested.Solver = &SolverConfigDTO{Strategy: "simulated-annealing"}
	for name, req := range map[string]RecommendationRequest{"flat": flat, "nested": nested} {
		_, err := client.Recommend(context.Background(), req)
		apiErr, ok := err.(*APIError)
		if !ok {
			t.Fatalf("%s: err = %v, want *APIError", name, err)
		}
		if apiErr.Status != http.StatusUnprocessableEntity || apiErr.Code != CodeInvalidRequest {
			t.Fatalf("%s: problem = %d/%s, want 422/%s", name, apiErr.Status, apiErr.Code, CodeInvalidRequest)
		}
		if apiErr.Detail != want {
			t.Fatalf("%s: detail\n got %s\nwant %s", name, apiErr.Detail, want)
		}
	}
}

// TestRecommendAnytimeEndToEnd drives the anytime lane through the
// full HTTP surface: the nested spec selects the strategy, and the
// response's search stats carry the certificate — including the
// explicit optimal/budget_exhausted booleans that omitempty would
// otherwise swallow.
func TestRecommendAnytimeEndToEnd(t *testing.T) {
	_, client, _ := newTestServer(t)
	ctx := context.Background()

	exact, err := client.Recommend(ctx, caseStudyWire())
	if err != nil {
		t.Fatal(err)
	}

	for _, strategy := range []string{optimize.StrategyBeam, optimize.StrategyLDS, optimize.StrategyBounded} {
		req := caseStudyWire()
		req.Solver = &SolverConfigDTO{Strategy: strategy, BudgetMS: 60_000}
		resp, err := client.Recommend(ctx, req)
		if err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		if resp.Search.Strategy != strategy || !resp.Search.Approximate {
			t.Fatalf("%s: search stats %+v", strategy, resp.Search)
		}
		if resp.Search.BoundUSD == nil || resp.Search.Optimal == nil || resp.Search.BudgetExhausted == nil {
			t.Fatalf("%s: certificate members missing: %+v", strategy, resp.Search)
		}
		if resp.Search.Gap != nil && *resp.Search.Gap < 0 {
			t.Fatalf("%s: negative gap %v", strategy, *resp.Search.Gap)
		}
		// The case-study space is tiny: every anytime strategy closes it
		// and must agree with the exact recommendation.
		if resp.BestOption != exact.BestOption {
			t.Fatalf("%s: best option %d, exact %d", strategy, resp.BestOption, exact.BestOption)
		}
		if *resp.Search.Optimal {
			if resp.Search.Gap == nil || *resp.Search.Gap != 0 {
				t.Fatalf("%s: optimal with gap %v", strategy, resp.Search.Gap)
			}
		}
	}
}

// TestJobCarriesSolverSpec: a nested spec rides through the async
// surface — the journaled request, the progress stream and the final
// result all see the anytime strategy.
func TestJobCarriesSolverSpec(t *testing.T) {
	_, client, _ := newTestServer(t)
	ctx := context.Background()

	req := caseStudyWire()
	req.Solver = &SolverConfigDTO{Strategy: optimize.StrategyBeam, BeamWidth: 16}
	job, err := client.SubmitJob(ctx, JobKindRecommend, req)
	if err != nil {
		t.Fatal(err)
	}
	status, err := client.WaitJob(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if status.State != "done" {
		t.Fatalf("job finished as %s (%+v)", status.State, status.Error)
	}
	rec, err := status.Recommendation()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Search.Strategy != optimize.StrategyBeam || !rec.Search.Approximate {
		t.Fatalf("job result search stats %+v, want an approximate beam run", rec.Search)
	}
}
