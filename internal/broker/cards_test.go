package broker

import (
	"context"
	"math/rand"
	"testing"
)

// concatLabel is the label rule spelled out by string concatenation,
// the oracle AppendLabel is held to.
func concatLabel(choices []Choice) string {
	s := ""
	for _, ch := range choices {
		if ch.TechID == "" {
			continue
		}
		if s != "" {
			s += ","
		}
		s += ch.Component + "=" + ch.TechID
	}
	if s == "" {
		return NoHALabel
	}
	return s
}

func TestAppendLabelMatchesConcatenation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	names := []string{"", "a", "compute", "storage", "x=y", "näme", "<&>"}
	for trial := 0; trial < 500; trial++ {
		choices := make([]Choice, rng.Intn(6))
		for i := range choices {
			choices[i] = Choice{Component: names[rng.Intn(len(names))]}
			if rng.Intn(2) == 0 {
				choices[i].TechID = names[1+rng.Intn(len(names)-1)]
			}
		}
		want := concatLabel(choices)
		if got := (OptionCard{Choices: choices}).Label(); got != want {
			t.Fatalf("Label(%v) = %q, want %q", choices, got, want)
		}
		// Appending keeps dst's prefix and adds exactly the label.
		if got := string(AppendLabel([]byte("prefix:"), choices)); got != "prefix:"+want {
			t.Fatalf("AppendLabel(prefix, %v) = %q, want %q", choices, got, "prefix:"+want)
		}
	}
}

// TestRecommendChoicesAllocationFlat: every card's choices come out
// of one backing array, so Recommend's allocation count no longer
// grows with the k^n card count. Going from n=8 to n=12 adds 3840
// cards; one allocation per card would add at least that many.
func TestRecommendChoicesAllocationFlat(t *testing.T) {
	e := newTestEngine(t)
	ctx := context.Background()
	allocs := func(n int) float64 {
		req := wideRequest(n)
		return testing.AllocsPerRun(5, func() {
			if _, err := e.Recommend(ctx, req); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(8), allocs(12)
	if growth := large - small; growth > 256 {
		t.Fatalf("Recommend allocations grew by %.0f from n=8 (%.0f) to n=12 (%.0f); want no per-card growth",
			growth, small, large)
	}
}

// TestCardChoicesDoNotAlias: cards share one backing array, but each
// card's choices are capped at their own length, so appending to one
// card reallocates instead of overwriting its neighbour.
func TestCardChoicesDoNotAlias(t *testing.T) {
	rec, err := newTestEngine(t).Recommend(context.Background(), CaseStudy())
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range rec.Cards {
		if cap(c.Choices) != len(c.Choices) {
			t.Fatalf("card #%d choices cap %d > len %d", i+1, cap(c.Choices), len(c.Choices))
		}
	}
	next := append([]Choice(nil), rec.Cards[1].Choices...)
	rec.Cards[0].Choices = append(rec.Cards[0].Choices, Choice{Component: "extra", TechID: "x"})
	rec.Cards[0].Choices[0].TechID = "changed"
	for j, ch := range rec.Cards[1].Choices {
		if ch != next[j] {
			t.Fatalf("card #2 choice %d changed to %+v after writing card #1, want %+v", j, ch, next[j])
		}
	}
}
