package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
)

// wireCard is the part of an option card the checks read.
type wireCard struct {
	Option        int     `json:"option"`
	HACostUSD     float64 `json:"ha_cost_usd"`
	UptimePercent float64 `json:"uptime_percent"`
	TCOUSD        float64 `json:"tco_usd"`
}

// wireRecommendation is the part of a recommendation response the
// checks read.
type wireRecommendation struct {
	Cards         []wireCard `json:"cards"`
	BestOption    int        `json:"best_option"`
	MinRiskOption int        `json:"min_risk_option"`
	Search        struct {
		SpaceSize int `json:"space_size"`
	} `json:"search"`
}

// checkRecommendation verifies a recommendation body: one card per
// candidate (len(cards) == search.space_size == k^n), and best_option
// names a card of minimum TCO. Bodies in encoding/json's layout are
// read by a scanner at a tenth of the cost of decoding them; any other
// layout is decoded in full.
func checkRecommendation(body []byte, space int) (wireRecommendation, error) {
	rec, ok := scanRecommendation(body)
	if !ok {
		rec = wireRecommendation{}
		if err := json.Unmarshal(body, &rec); err != nil {
			return rec, fmt.Errorf("decode recommendation: %w", err)
		}
	}
	if len(rec.Cards) != space || rec.Search.SpaceSize != space {
		return rec, fmt.Errorf("recommendation has %d cards and space_size %d, want %d", len(rec.Cards), rec.Search.SpaceSize, space)
	}
	if rec.BestOption < 1 || rec.BestOption > len(rec.Cards) || rec.Cards[rec.BestOption-1].Option != rec.BestOption {
		return rec, fmt.Errorf("best_option %d does not name a card", rec.BestOption)
	}
	minTCO := math.Inf(1)
	for _, c := range rec.Cards {
		minTCO = math.Min(minTCO, c.TCOUSD)
	}
	if best := rec.Cards[rec.BestOption-1].TCOUSD; best != minTCO {
		return rec, fmt.Errorf("best_option %d costs %.2f, minimum TCO is %.2f", rec.BestOption, best, minTCO)
	}
	return rec, nil
}

// Markers of encoding/json's layout of a RecommendationResponse.
var (
	cardsStart  = []byte(`"cards":[`)
	cardStart   = []byte(`{"option":`)
	tcoMember   = []byte(`,"tco_usd":`)
	slaMember   = []byte(`,"meets_sla":`)
	bestMember  = []byte(`"best_option":`)
	riskMember  = []byte(`"min_risk_option":`)
	spaceMember = []byte(`"search":{"space_size":`)
)

// scanRecommendation reads the checked fields of a body laid out as
// encoding/json writes httpapi.RecommendationResponse: cards in order,
// each opening with its option number and carrying tco_usd and
// meets_sla as its last members. ok is false for any other layout.
func scanRecommendation(body []byte) (rec wireRecommendation, ok bool) {
	i := bytes.Index(body, cardsStart)
	if i < 0 || body[0] != '{' {
		return rec, false
	}
	i += len(cardsStart)
	for i < len(body) && body[i] != ']' {
		if !bytes.HasPrefix(body[i:], cardStart) {
			return rec, false
		}
		i += len(cardStart)
		option, n, ok := scanNumber(body[i:])
		if !ok {
			return rec, false
		}
		i += n
		t := bytes.Index(body[i:], tcoMember)
		if t < 0 {
			return rec, false
		}
		i += t + len(tcoMember)
		tco, n, ok := scanNumber(body[i:])
		if !ok || !bytes.HasPrefix(body[i+n:], slaMember) {
			return rec, false
		}
		i += n + len(slaMember)
		switch {
		case bytes.HasPrefix(body[i:], []byte("true}")):
			i += len("true}")
		case bytes.HasPrefix(body[i:], []byte("false}")):
			i += len("false}")
		default:
			return rec, false
		}
		rec.Cards = append(rec.Cards, wireCard{Option: int(option), TCOUSD: tco})
		if i < len(body) && body[i] == ',' {
			i++
		}
	}
	if i >= len(body) {
		return rec, false
	}
	tail := body[i:]
	var best, risk, space float64
	if best, ok = scanMember(tail, bestMember); !ok {
		return rec, false
	}
	if space, ok = scanMember(tail, spaceMember); !ok {
		return rec, false
	}
	risk, _ = scanMember(tail, riskMember) // omitted when zero
	rec.BestOption, rec.MinRiskOption, rec.Search.SpaceSize = int(best), int(risk), int(space)
	return rec, true
}

// scanMember parses the number following the first occurrence of key.
func scanMember(b, key []byte) (float64, bool) {
	i := bytes.Index(b, key)
	if i < 0 {
		return 0, false
	}
	v, _, ok := scanNumber(b[i+len(key):])
	return v, ok
}

// scanNumber parses the JSON number at the start of b, returning it
// and its length.
func scanNumber(b []byte) (float64, int, bool) {
	n := 0
	for n < len(b) && (b[n] == '-' || b[n] == '+' || b[n] == '.' || b[n] == 'e' || b[n] == 'E' || (b[n] >= '0' && b[n] <= '9')) {
		n++
	}
	v, err := strconv.ParseFloat(string(b[:n]), 64)
	return v, n, err == nil
}

// checkFrontier verifies a pareto body: non-empty, HA cost ascending
// and uptime strictly ascending.
func checkFrontier(body []byte) ([]wireCard, error) {
	var cards []wireCard
	if err := json.Unmarshal(body, &cards); err != nil {
		return nil, fmt.Errorf("decode frontier: %w", err)
	}
	if len(cards) == 0 {
		return nil, fmt.Errorf("empty frontier")
	}
	for i := 1; i < len(cards); i++ {
		if cards[i].HACostUSD < cards[i-1].HACostUSD || cards[i].UptimePercent <= cards[i-1].UptimePercent {
			return nil, fmt.Errorf("frontier card %d (cost %.2f, uptime %.6f) does not follow card %d (cost %.2f, uptime %.6f)",
				i+1, cards[i].HACostUSD, cards[i].UptimePercent, i, cards[i-1].HACostUSD, cards[i-1].UptimePercent)
		}
	}
	return cards, nil
}

// checkStatus rejects any status other than want.
func checkStatus(got, want int) error {
	if got != want {
		return fmt.Errorf("HTTP %d, want %d", got, want)
	}
	return nil
}

// cacheMember is where a recommendation body reports its cache
// disposition; it is the body's last member.
var cacheMember = []byte(`,"cache":"`)

// withoutCache strips the trailing cache member, so bodies that differ
// only in how the cache answered compare equal.
func withoutCache(body []byte) []byte {
	if i := bytes.LastIndex(body, cacheMember); i >= 0 {
		return body[:i]
	}
	return body
}

// hotChecker verifies recommend-hot responses. The first response per
// key in each params epoch is decoded and checked in full; later
// responses for that key must equal it byte for byte apart from the
// cache member, which checks them as fully at a fraction of the cost.
type hotChecker struct {
	mu       sync.Mutex
	verified [][]byte // per key: the last fully checked body, cache member stripped
	missLo   []int64  // per key: observations finished when the key's last miss was sent
}

func newHotChecker(keys int) *hotChecker {
	h := &hotChecker{verified: make([][]byte, keys), missLo: make([]int64, keys)}
	for i := range h.missLo {
		h.missLo[i] = -1
	}
	return h
}

// check verifies one response. A request sees the params epoch of
// some observation count between before (observations finished when it
// was sent) and after (observations started when it was answered). A
// miss is the first request for its key in an epoch, so two misses of
// one key must see different epochs: a miss whose latest possible
// epoch is no later than the previous miss's earliest one is a second
// miss in one epoch.
func (h *hotChecker) check(o op, status int, xcache string, body []byte, before, after int64) error {
	if err := checkStatus(status, http.StatusOK); err != nil {
		return err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	switch xcache {
	case "hit", "shared":
	case "miss":
		if after <= h.missLo[o.Key] {
			return fmt.Errorf("key %d missed twice in one params epoch", o.Key)
		}
		h.missLo[o.Key] = before
	default:
		return fmt.Errorf("X-Cache %q, want hit, shared or miss", xcache)
	}
	stripped := withoutCache(body)
	if v := h.verified[o.Key]; v != nil && bytes.Equal(v, stripped) {
		return nil
	}
	if _, err := checkRecommendation(body, o.Space); err != nil {
		return err
	}
	h.verified[o.Key] = append([]byte(nil), stripped...)
	return nil
}
