package httpapi

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestPricingSelectableEndToEnd pins the deprecated wire "pricing"
// hint as accepted and without effect: every accepted value — and
// leaving it out — yields byte-identical recommendation and frontier
// bodies, on the case study and on a wide chain whose 2^12 space sits
// on the parallel side of the auto pricing decision.
func TestPricingSelectableEndToEnd(t *testing.T) {
	ts, client, _ := newTestServer(t)
	for _, base := range []struct {
		name string
		req  RecommendationRequest
	}{{"case study", caseStudyWire()}, {"wide n=12", wideWireRequest(12)}} {
		for _, path := range []string{"/v2/recommendations", "/v2/pareto"} {
			var want []byte
			for _, pricing := range []string{"", "auto", "parallel", "sequential"} {
				req := base.req
				req.Pricing = pricing
				resp := postJSON(t, ts, path, req)
				body, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s %s pricing=%q: status %d: %s", base.name, path, pricing, resp.StatusCode, body)
				}
				if want == nil {
					want = body
				} else if !bytes.Equal(body, want) {
					t.Fatalf("%s %s: pricing=%q body differs from the body without the hint", base.name, path, pricing)
				}
			}
		}
	}

	// The hint rides journaled job payloads too.
	req := caseStudyWire()
	req.Pricing = "sequential"
	ctx := context.Background()
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
}

// TestPricingUnknownRejected: a pricing hint no release accepted is
// still outside input the server reports, as invalid_request naming
// the value, on every route that takes a recommendation request — a
// 422 on the synchronous routes, a failed job, a failed batch item.
func TestPricingUnknownRejected(t *testing.T) {
	ts, client, _ := newTestServer(t)
	ctx := context.Background()
	req := caseStudyWire()
	req.Pricing = "warp"

	for _, path := range []string{"/v1/recommendations", "/v1/pareto", "/v2/recommendations", "/v2/pareto"} {
		resp := postJSON(t, ts, path, req)
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		assertProblem(t, resp, http.StatusUnprocessableEntity, CodeInvalidRequest)
		if !strings.Contains(string(body), "warp") {
			t.Fatalf("%s: problem %s does not name the bad pricing mode", path, body)
		}
	}

	for _, kind := range []string{JobKindRecommend, JobKindPareto} {
		job, err := client.SubmitJob(ctx, kind, req)
		if err != nil {
			t.Fatal(err)
		}
		status, err := client.WaitJob(ctx, job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if status.State != "failed" || status.Error == nil || status.Error.Code != CodeInvalidRequest ||
			!strings.Contains(status.Error.Detail, "warp") {
			t.Fatalf("%s job = %s (%+v), want failed with invalid_request naming warp", kind, status.State, status.Error)
		}
	}

	batch, err := client.RecommendBatch(ctx, []RecommendationRequest{caseStudyWire(), req, caseStudyWire()})
	if err != nil {
		t.Fatalf("RecommendBatch: %v", err)
	}
	if batch.Succeeded != 2 || batch.Failed != 1 {
		t.Fatalf("succeeded/failed = %d/%d, want 2/1", batch.Succeeded, batch.Failed)
	}
	for i, item := range batch.Results {
		if item.Index != i {
			t.Fatalf("item %d has index %d", i, item.Index)
		}
	}
	if bad := batch.Results[1]; bad.Error == nil || bad.Error.Code != CodeInvalidRequest ||
		!strings.Contains(bad.Error.Detail, "warp") || bad.Recommendation != nil {
		t.Fatalf("batch item 1 = %+v, want invalid_request naming warp", bad)
	}
	if ok := batch.Results[2]; ok.Recommendation == nil || ok.Error != nil {
		t.Fatalf("batch item 2 should have succeeded: %+v", ok)
	}
}
