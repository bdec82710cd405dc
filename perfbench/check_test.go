package main

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"uptimebroker/internal/httpapi"
	"uptimebroker/internal/telemetry"
)

func recommendationBody(t *testing.T, s chainShape, sla, penalty float64) []byte {
	t.Helper()
	e, err := newEngine(telemetry.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	var req httpapi.RecommendationRequest
	if err := json.Unmarshal(mustJSON(request("check", s, sla, penalty)), &req); err != nil {
		t.Fatal(err)
	}
	rec, err := e.Recommend(context.Background(), req.ToBroker())
	if err != nil {
		t.Fatal(err)
	}
	resp := httpapi.FromRecommendation(rec)
	resp.Cache = "miss"
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestScanMatchesDecode checks the scanner against a full decode on
// real server bodies.
func TestScanMatchesDecode(t *testing.T) {
	for _, s := range []chainShape{{6, 2}, {4, 3}} {
		body := recommendationBody(t, s, 99.5, 900)
		got, ok := scanRecommendation(body)
		if !ok {
			t.Fatalf("%v: scanner rejected encoding/json's layout", s)
		}
		var want wireRecommendation
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		for i := range want.Cards {
			want.Cards[i].HACostUSD, want.Cards[i].UptimePercent = 0, 0
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: scanned %+v, decoded %+v", s, got, want)
		}
		if _, err := checkRecommendation(body, s.space()); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
	}
}

func TestCheckRecommendationRejects(t *testing.T) {
	body := recommendationBody(t, chainShape{5, 2}, 99.5, 900)
	if _, err := checkRecommendation(body, 64); err == nil {
		t.Error("accepted 32 cards for a space of 64")
	}
	rec, _ := scanRecommendation(body)
	wrong := 1
	if rec.BestOption == 1 {
		wrong = 2
	}
	bad := bytes.Replace(body, []byte(`"best_option":`+itoa(rec.BestOption)), []byte(`"best_option":`+itoa(wrong)), 1)
	if _, err := checkRecommendation(bad, 32); err == nil {
		t.Error("accepted a best_option that is not the minimum TCO")
	}
	// Another layout of the same document falls back to a full decode.
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	indented, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkRecommendation(indented, 32); err != nil {
		t.Errorf("indented body: %v", err)
	}
}

func itoa(n int) string { b, _ := json.Marshal(n); return string(b) }

func TestCheckFrontier(t *testing.T) {
	if _, err := checkFrontier([]byte(`[{"option":1,"ha_cost_usd":0,"uptime_percent":90},{"option":3,"ha_cost_usd":10,"uptime_percent":95}]`)); err != nil {
		t.Errorf("valid frontier: %v", err)
	}
	for _, bad := range []string{
		`[]`,
		`[{"option":1,"ha_cost_usd":10,"uptime_percent":90},{"option":3,"ha_cost_usd":0,"uptime_percent":95}]`,
		`[{"option":1,"ha_cost_usd":0,"uptime_percent":95},{"option":3,"ha_cost_usd":10,"uptime_percent":95}]`,
	} {
		if _, err := checkFrontier([]byte(bad)); err == nil {
			t.Errorf("accepted %s", bad)
		}
	}
}
