package httpapi

import (
	"context"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Middleware wraps an http.Handler with one cross-cutting concern.
// Chain composes them; each stays independently testable.
type Middleware func(http.Handler) http.Handler

// Chain applies the middlewares so that the first argument is the
// outermost: Chain(h, a, b) serves a(b(h)).
func Chain(h http.Handler, mws ...Middleware) http.Handler {
	for i := len(mws) - 1; i >= 0; i-- {
		h = mws[i](h)
	}
	return h
}

// requestIDKey is the context key carrying the request's ID.
type requestIDKey struct{}

// RequestIDHeader carries the request ID on responses (and is
// honored on requests, letting callers propagate their own IDs).
const RequestIDHeader = "X-Request-Id"

// RequestIDFrom returns the request's assigned ID, or "".
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// RequestID assigns each request a monotonically increasing ID
// (unless the caller supplied one), exposes it via RequestIDFrom, and
// echoes it in the response headers.
func RequestID() Middleware {
	var seq atomic.Uint64
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			id := r.Header.Get(RequestIDHeader)
			if id == "" {
				id = fmt.Sprintf("req-%08d", seq.Add(1))
			}
			w.Header().Set(RequestIDHeader, id)
			next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id)))
		})
	}
}

// statusRecorder captures the response status for the timing log.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so wrapping a handler in
// Logging does not hide its streaming ability — the SSE route
// type-asserts http.Flusher and would silently degrade to its
// polling fallback otherwise.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap supports http.ResponseController pass-through.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// Logging logs one line per request with method, path, status and
// wall time. A nil logger disables it without breaking the chain.
func Logging(logger *log.Logger) Middleware {
	return func(next http.Handler) http.Handler {
		if logger == nil {
			return next
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := &statusRecorder{ResponseWriter: w}
			start := time.Now()
			next.ServeHTTP(rec, r)
			if rec.status == 0 {
				rec.status = http.StatusOK
			}
			logger.Printf("req=%s %s %s -> %d (%s)",
				RequestIDFrom(r.Context()), r.Method, r.URL.Path, rec.status, time.Since(start).Round(time.Microsecond))
		})
	}
}

// Recover converts handler panics into a problem+json 500 instead of
// a dropped connection, logging the panic value.
func Recover(logger *log.Logger) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			defer func() {
				if rec := recover(); rec != nil {
					if logger != nil {
						logger.Printf("req=%s PANIC %s %s: %v", RequestIDFrom(r.Context()), r.Method, r.URL.Path, rec)
					}
					p := NewProblem(CodeInternal, http.StatusInternalServerError, "internal error")
					p.RequestID = RequestIDFrom(r.Context())
					writeProblem(w, p)
				}
			}()
			next.ServeHTTP(w, r)
		})
	}
}

// MaxBody caps request body sizes before the handlers decode them.
func MaxBody(n int64) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Body != nil {
				r.Body = http.MaxBytesReader(w, r.Body, n)
			}
			next.ServeHTTP(w, r)
		})
	}
}

// tokenBucket is a minimal thread-safe token bucket.
type tokenBucket struct {
	mu     sync.Mutex
	tokens float64
	burst  float64
	rate   float64 // tokens per second
	last   time.Time
	now    func() time.Time
}

func newTokenBucket(rate float64, burst int, now func() time.Time) *tokenBucket {
	if now == nil {
		now = time.Now
	}
	b := &tokenBucket{tokens: float64(burst), burst: float64(burst), rate: rate, now: now}
	b.last = now()
	return b
}

// allow consumes one token if available.
func (b *tokenBucket) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.now()
	b.tokens += b.rate * t.Sub(b.last).Seconds()
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = t
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// exempt bypasses a middleware for a set of exact paths.
func exempt(mw Middleware, paths ...string) Middleware {
	return func(next http.Handler) http.Handler {
		wrapped := mw(next)
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			for _, path := range paths {
				if r.URL.Path == path {
					next.ServeHTTP(w, r)
					return
				}
			}
			wrapped.ServeHTTP(w, r)
		})
	}
}

// retryAfterSeconds renders a wait duration as a Retry-After header
// value: whole seconds rounded up, never below 1 (RFC 9110 allows 0,
// but a 0 invites an immediate identical retry).
func retryAfterSeconds(d time.Duration) string {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// rateRetryAfter is the Retry-After for a drained token bucket: the
// time one token takes to refill at the configured rate.
func rateRetryAfter(rate float64) string {
	return retryAfterSeconds(time.Duration(float64(time.Second) / rate))
}

// RateLimit rejects requests beyond rate requests/second (bucket
// depth burst) with a rate_limited problem. rate <= 0 disables the
// limiter.
func RateLimit(rate float64, burst int) Middleware {
	return rateLimitClock(rate, burst, nil)
}

// clientIP extracts the requesting client's address. Without
// trustProxy it is strictly the connection's remote host — request
// headers are attacker-controlled and must not mint rate-limit
// buckets. With trustProxy (the broker sits behind a proxy that
// appends the real client to X-Forwarded-For) it is the *rightmost*
// XFF entry: the one written by the trusted hop, where the leftmost
// entries are whatever the client claimed.
func clientIP(r *http.Request, trustProxy bool) string {
	if trustProxy {
		if xff := r.Header.Get("X-Forwarded-For"); xff != "" {
			if i := strings.LastIndexByte(xff, ','); i >= 0 {
				xff = xff[i+1:]
			}
			if ip := strings.TrimSpace(xff); ip != "" {
				return ip
			}
		}
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// Per-client limiter housekeeping: buckets untouched for the idle TTL
// are dropped (they have refilled to their burst, so eviction loses
// nothing), checked every sweepEvery requests so the map cannot grow
// with one entry per client that ever connected.
const (
	clientIdleTTL    = 5 * time.Minute
	clientSweepEvery = 256
)

// clientBuckets keys token buckets by client IP.
type clientBuckets struct {
	mu      sync.Mutex
	rate    float64
	burst   int
	now     func() time.Time
	buckets map[string]*tokenBucket
	ops     int
}

func newClientBuckets(rate float64, burst int, now func() time.Time) *clientBuckets {
	if now == nil {
		now = time.Now
	}
	return &clientBuckets{rate: rate, burst: burst, now: now, buckets: make(map[string]*tokenBucket)}
}

// allow consumes one token from the client's bucket, creating it on
// first sight and sweeping idle buckets on a cadence.
func (c *clientBuckets) allow(ip string) bool {
	c.mu.Lock()
	c.ops++
	if c.ops%clientSweepEvery == 0 {
		c.sweepLocked()
	}
	b, ok := c.buckets[ip]
	if !ok {
		b = newTokenBucket(c.rate, c.burst, c.now)
		c.buckets[ip] = b
	}
	c.mu.Unlock()
	return b.allow()
}

// sweepLocked evicts buckets idle past the TTL.
func (c *clientBuckets) sweepLocked() {
	cutoff := c.now().Add(-clientIdleTTL)
	for ip, b := range c.buckets {
		b.mu.Lock()
		idle := b.last.Before(cutoff)
		b.mu.Unlock()
		if idle {
			delete(c.buckets, ip)
		}
	}
}

// size reports the live bucket count (for tests and metrics).
func (c *clientBuckets) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.buckets)
}

// perClientRateLimitBuckets rejects each client that drains its
// bucket with a rate_limited problem, keying buckets on the client IP.
// It isolates tenants from one another — one chatty client exhausts
// its own bucket, not the shared one — and composes with the global
// RateLimit, which stays the overall cap. trustProxy keys on the
// rightmost X-Forwarded-For entry instead of the connection address;
// enable it only when a trusted proxy fronts the broker, since a
// directly-connected client could otherwise forge a fresh "IP" per
// request and never be limited. NewServer holds the bucket map itself
// so its occupancy can feed the ratelimit_client_buckets gauge.
func perClientRateLimitBuckets(buckets *clientBuckets, trustProxy bool) Middleware {
	rate := buckets.rate
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ip := clientIP(r, trustProxy)
			if !buckets.allow(ip) {
				p := NewProblem(CodeRateLimited, http.StatusTooManyRequests,
					fmt.Sprintf("per-client rate limit of %g requests/second exceeded", rate))
				p.RequestID = RequestIDFrom(r.Context())
				w.Header().Set("Retry-After", rateRetryAfter(rate))
				writeProblem(w, p)
				return
			}
			next.ServeHTTP(w, r)
		})
	}
}

// rateLimitClock is RateLimit with an injectable clock for tests.
func rateLimitClock(rate float64, burst int, now func() time.Time) Middleware {
	return func(next http.Handler) http.Handler {
		if rate <= 0 {
			return next
		}
		if burst < 1 {
			burst = 1
		}
		bucket := newTokenBucket(rate, burst, now)
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !bucket.allow() {
				p := NewProblem(CodeRateLimited, http.StatusTooManyRequests,
					fmt.Sprintf("rate limit of %g requests/second exceeded", rate))
				p.RequestID = RequestIDFrom(r.Context())
				w.Header().Set("Retry-After", rateRetryAfter(rate))
				writeProblem(w, p)
				return
			}
			next.ServeHTTP(w, r)
		})
	}
}
