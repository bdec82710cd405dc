package httpapi

import (
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strconv"
	"sync"

	"uptimebroker/internal/broker"
)

// Card bodies — a recommendation, a Pareto frontier, a batch — are the
// service's bulk output: one card per HA permutation, k^n of them. They
// are encoded here straight from the domain values with append-style
// writers instead of converting to the wire DTOs and handing those to
// encoding/json: no per-card DTO copy, no reflection, and no whole body
// held in memory when streaming. The bytes are identical to
// encoding/json's encoding of the reference form (FromRecommendation's
// RecommendationResponse, OptionCardDTO, BatchResponse); the golden
// and fuzz tests pin that.

// encodeChunk is the size of the pooled buffer a streamed body passes
// through. A card is spilled to the writer once the buffer is three
// quarters full, so a body smaller than that reaches the writer in one
// Write, exactly as encoding/json's Encoder delivers it.
const encodeChunk = 64 << 10

// encoderPool recycles streaming encoders with their chunk buffers.
var encoderPool = sync.Pool{New: func() any {
	return &cardEncoder{buf: make([]byte, 0, encodeChunk)}
}}

// cardEncoder appends one JSON document to buf. With a writer it
// spills buf to w between cards whenever the chunk fills; without one
// it accumulates the whole document.
type cardEncoder struct {
	buf []byte
	w   io.Writer
}

// spill hands a filled chunk to the writer.
func (e *cardEncoder) spill() error {
	if e.w == nil || len(e.buf) < encodeChunk*3/4 {
		return nil
	}
	_, err := e.w.Write(e.buf)
	e.buf = e.buf[:0]
	return err
}

// streamJSON runs encode on a pooled encoder that spills to w, then
// writes the rest of the document and the trailing newline
// json.Encoder ends every value with. An error may leave a prefix of
// the document written.
func streamJSON(w io.Writer, encode func(*cardEncoder) error) error {
	e := encoderPool.Get().(*cardEncoder)
	e.buf, e.w = e.buf[:0], w
	err := encode(e)
	if err == nil {
		e.buf = append(e.buf, '\n')
		_, err = w.Write(e.buf)
	}
	if cap(e.buf) == encodeChunk { // a card larger than the slack grew it
		e.w = nil
		encoderPool.Put(e)
	}
	return err
}

// marshalJSON runs encode into one growing buffer and returns the
// document in json.Marshal's form (no trailing newline).
func marshalJSON(encode func(*cardEncoder) error) (json.RawMessage, error) {
	e := new(cardEncoder)
	if err := encode(e); err != nil {
		return nil, err
	}
	return e.buf, nil
}

// writeRecommendation streams the body of a recommendation route:
// FromRecommendation(rec) with its Cache member set to cache.
func writeRecommendation(w io.Writer, rec *broker.Recommendation, cache string) error {
	return streamJSON(w, func(e *cardEncoder) error { return e.recommendation(rec, cache) })
}

// writeCards streams a frontier body: the []OptionCardDTO of cards.
func writeCards(w io.Writer, cards []broker.OptionCard) error {
	return streamJSON(w, func(e *cardEncoder) error { return e.cards(cards) })
}

// writeBatch streams the BatchResponse of a batch route's items.
func writeBatch(w io.Writer, items []broker.BatchItem) error {
	return streamJSON(w, func(e *cardEncoder) error { return e.batch(items) })
}

// marshalRecommendation is writeRecommendation's document as one
// json.RawMessage, the form a recommend job's result is kept in.
func marshalRecommendation(rec *broker.Recommendation, cache string) (json.RawMessage, error) {
	return marshalJSON(func(e *cardEncoder) error { return e.recommendation(rec, cache) })
}

// marshalCards is writeCards' document as one json.RawMessage, the
// form a pareto job's result is kept in.
func marshalCards(cards []broker.OptionCard) (json.RawMessage, error) {
	return marshalJSON(func(e *cardEncoder) error { return e.cards(cards) })
}

// recommendation appends a RecommendationResponse object.
func (e *cardEncoder) recommendation(rec *broker.Recommendation, cache string) error {
	b := append(e.buf, `{"system":`...)
	b = appendString(b, rec.System)
	b = append(b, `,"provider":`...)
	b = appendString(b, rec.Provider)
	b = append(b, `,"sla_percent":`...)
	b, err := appendFloat(b, rec.SLA.UptimePercent)
	if err != nil {
		return err
	}
	e.buf = append(b, `,"cards":`...)
	if err := e.cards(rec.Cards); err != nil {
		return err
	}

	b = append(e.buf, `,"best_option":`...)
	b = strconv.AppendInt(b, int64(rec.BestOption), 10)
	if rec.MinRiskOption != 0 {
		b = append(b, `,"min_risk_option":`...)
		b = strconv.AppendInt(b, int64(rec.MinRiskOption), 10)
	}
	if rec.AsIsOption != 0 {
		b = append(b, `,"as_is_option":`...)
		b = strconv.AppendInt(b, int64(rec.AsIsOption), 10)
	}
	if savings := rec.SavingsFraction * 100; savings != 0 {
		b = append(b, `,"savings_percent":`...)
		if b, err = appendFloat(b, savings); err != nil {
			return err
		}
	}
	b = append(b, `,"search":`...)
	if b, err = appendSearch(b, fromSearchStats(rec.Search)); err != nil {
		return err
	}
	if cache != "" {
		b = append(b, `,"cache":`...)
		b = appendString(b, cache)
	}
	e.buf = append(b, '}')
	return nil
}

// cards appends a card array, spilling between cards.
func (e *cardEncoder) cards(cards []broker.OptionCard) error {
	e.buf = append(e.buf, '[')
	for i := range cards {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		var err error
		if e.buf, err = appendCard(e.buf, &cards[i]); err != nil {
			return err
		}
		if err := e.spill(); err != nil {
			return err
		}
	}
	e.buf = append(e.buf, ']')
	return nil
}

// batch appends a BatchResponse object over the items.
func (e *cardEncoder) batch(items []broker.BatchItem) error {
	var succeeded, failed int
	e.buf = append(e.buf, `{"results":[`...)
	for i, item := range items {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = append(e.buf, `{"index":`...)
		e.buf = strconv.AppendInt(e.buf, int64(item.Index), 10)
		if item.Err != nil {
			dto := batchItemError(item.Err)
			e.buf = append(e.buf, `,"error":{"code":`...)
			e.buf = appendString(e.buf, dto.Code)
			e.buf = append(e.buf, `,"detail":`...)
			e.buf = appendString(e.buf, dto.Detail)
			e.buf = append(e.buf, '}')
			failed++
		} else {
			e.buf = append(e.buf, `,"recommendation":`...)
			if err := e.recommendation(item.Rec, ""); err != nil {
				return err
			}
			succeeded++
		}
		e.buf = append(e.buf, '}')
	}
	e.buf = append(e.buf, `],"succeeded":`...)
	e.buf = strconv.AppendInt(e.buf, int64(succeeded), 10)
	e.buf = append(e.buf, `,"failed":`...)
	e.buf = strconv.AppendInt(e.buf, int64(failed), 10)
	e.buf = append(e.buf, '}')
	return nil
}

// appendCard appends one OptionCardDTO object, the wire form fromCard
// gives c.
func appendCard(b []byte, c *broker.OptionCard) ([]byte, error) {
	b = append(b, `{"option":`...)
	b = strconv.AppendInt(b, int64(c.Option), 10)
	b = append(b, `,"label":`...)
	b = appendLabel(b, c.Choices)
	b = append(b, `,"choices":[`...)
	for i, ch := range c.Choices {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"component":`...)
		b = appendString(b, ch.Component)
		if ch.TechID != "" {
			b = append(b, `,"tech_id":`...)
			b = appendString(b, ch.TechID)
		}
		b = append(b, '}')
	}
	var err error
	for _, m := range [...]struct {
		key string
		v   float64
	}{
		{`],"ha_cost_usd":`, c.HACost.Dollars()},
		{`,"uptime_percent":`, c.Uptime * 100},
		{`,"slippage_hours_per_month":`, c.SlippageHours},
		{`,"penalty_usd":`, c.Penalty.Dollars()},
		{`,"tco_usd":`, c.TCO.Dollars()},
	} {
		b = append(b, m.key...)
		if b, err = appendFloat(b, m.v); err != nil {
			return b, err
		}
	}
	b = append(b, `,"meets_sla":`...)
	b = strconv.AppendBool(b, c.MeetsSLA)
	return append(b, '}'), nil
}

// appendSearch appends a SearchStatsDTO object.
func appendSearch(b []byte, s SearchStatsDTO) ([]byte, error) {
	b = append(b, `{"space_size":`...)
	b = strconv.AppendInt(b, int64(s.SpaceSize), 10)
	b = append(b, `,"evaluated":`...)
	b = strconv.AppendInt(b, int64(s.Evaluated), 10)
	b = append(b, `,"skipped":`...)
	b = strconv.AppendInt(b, int64(s.Skipped), 10)
	if s.CoverLookups != 0 {
		b = append(b, `,"cover_lookups":`...)
		b = strconv.AppendInt(b, int64(s.CoverLookups), 10)
	}
	if s.Clipped != 0 {
		b = append(b, `,"clipped":`...)
		b = strconv.AppendInt(b, int64(s.Clipped), 10)
	}
	if s.Strategy != "" {
		b = append(b, `,"strategy":`...)
		b = appendString(b, s.Strategy)
	}
	if s.Approximate {
		b = append(b, `,"approximate":true`...)
	}
	var err error
	if s.BoundUSD != nil {
		b = append(b, `,"bound_usd":`...)
		if b, err = appendFloat(b, *s.BoundUSD); err != nil {
			return b, err
		}
	}
	if s.Gap != nil {
		b = append(b, `,"gap":`...)
		if b, err = appendFloat(b, *s.Gap); err != nil {
			return b, err
		}
	}
	if s.Optimal != nil {
		b = append(b, `,"optimal":`...)
		b = strconv.AppendBool(b, *s.Optimal)
	}
	if s.BudgetExhausted != nil {
		b = append(b, `,"budget_exhausted":`...)
		b = strconv.AppendBool(b, *s.BudgetExhausted)
	}
	return append(b, '}'), nil
}

// appendLabel appends a card's label as a JSON string, written in
// place by broker.AppendLabel so the wire and Label() share one rule.
func appendLabel(b []byte, choices []broker.Choice) []byte {
	start := len(b)
	b = append(b, '"')
	b = broker.AppendLabel(b, choices)
	if plainString(b[start+1:]) {
		return append(b, '"')
	}
	return appendEscaped(b[:start], string(b[start+1:]))
}

// plainByte marks the bytes encoding/json writes verbatim inside a
// string with HTML escaping on: ASCII from space to DEL other than
// '"', '\\', '<', '>' and '&'.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c <= 0x7f; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// plainString reports whether every byte of s is a plainByte.
func plainString[S string | []byte](s S) bool {
	for i := 0; i < len(s); i++ {
		if !plainByte[s[i]] {
			return false
		}
	}
	return true
}

// appendString appends s as a JSON string exactly as encoding/json
// writes it. Plain ASCII is copied; anything else (escapes, control
// characters, U+2028/2029, invalid UTF-8, non-ASCII text) is left to
// encoding/json itself.
func appendString(b []byte, s string) []byte {
	if !plainString(s) {
		return appendEscaped(b, s)
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendEscaped appends encoding/json's encoding of a string that
// needs escaping.
func appendEscaped(b []byte, s string) []byte {
	q, _ := json.Marshal(s) // a string always marshals
	return append(b, q...)
}

// appendFloat appends f exactly as encoding/json writes a float64:
// the shortest representation in 'f' form, or in 'e' form below 1e-6
// and from 1e21 on, with a one-digit negative exponent written without
// its leading zero. Infinities and NaN are an error, as there.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}
