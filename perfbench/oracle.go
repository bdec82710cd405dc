package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"uptimebroker/internal/broker"
	"uptimebroker/internal/catalog"
	"uptimebroker/internal/httpapi"
	"uptimebroker/internal/telemetry"
)

// newEngine builds an engine with brokerd's parameter wiring: live
// telemetry over the catalog defaults. opts add a cache or other
// production options.
func newEngine(store *telemetry.Store, opts ...broker.EngineOption) (*broker.Engine, error) {
	cat := catalog.Default()
	return broker.New(cat, broker.TelemetryParams{
		Store:            store,
		Fallback:         broker.CatalogParams{Catalog: cat},
		MinExposureYears: 1,
	}, opts...)
}

// verifyOracle recomputes every sampled response on an in-process
// cache-less engine and compares best_option and min_risk_option (or
// the frontier's cost and uptime pairs). observations are the
// workload's telemetry observations in the order they were posted;
// each sample is answered with as many applied as the server had.
func verifyOracle(ctx context.Context, samples []oracleSample, observations []op) error {
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].observations < samples[j].observations })
	store := telemetry.NewStore()
	engine, err := newEngine(store)
	if err != nil {
		return err
	}
	applied := 0
	for _, s := range samples {
		for ; applied < s.observations; applied++ {
			if err := applyObservation(store, observations[applied]); err != nil {
				return err
			}
		}
		var req httpapi.RecommendationRequest
		if err := json.Unmarshal(s.op.Body, &req); err != nil {
			return fmt.Errorf("oracle: decode request: %w", err)
		}
		if s.frontier != nil {
			front, err := engine.Pareto(ctx, req.ToBroker())
			if err != nil {
				return fmt.Errorf("oracle pareto: %w", err)
			}
			if err := sameFrontier(s.frontier, front); err != nil {
				return err
			}
			continue
		}
		rec, err := engine.Recommend(ctx, req.ToBroker())
		if err != nil {
			return fmt.Errorf("oracle recommend: %w", err)
		}
		if rec.BestOption != s.bestOption || rec.MinRiskOption != s.minRiskOption {
			return fmt.Errorf("oracle: %s answered best %d / min-risk %d over HTTP, in-process engine %d / %d",
				req.Base.Name, s.bestOption, s.minRiskOption, rec.BestOption, rec.MinRiskOption)
		}
	}
	return nil
}

func sameFrontier(got []wireCard, want []broker.OptionCard) error {
	if len(got) != len(want) {
		return fmt.Errorf("oracle: frontier has %d cards over HTTP, %d in-process", len(got), len(want))
	}
	for i, c := range want {
		if got[i].Option != c.Option || got[i].HACostUSD != c.HACost.Dollars() || got[i].UptimePercent != c.Uptime*100 {
			return fmt.Errorf("oracle: frontier card %d differs: option %d over HTTP, %d in-process", i+1, got[i].Option, c.Option)
		}
	}
	return nil
}

func applyObservation(store *telemetry.Store, o op) error {
	var obs httpapi.Observation
	if err := json.Unmarshal(o.Body, &obs); err != nil {
		return fmt.Errorf("oracle: decode observation: %w", err)
	}
	return store.RecordExposure(obs.Provider, obs.Class, obs.Duration())
}
