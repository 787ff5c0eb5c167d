package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"
)

// Request-scoped observability: every request through the v1 handler
// gets a correlation ID (caller-supplied X-Request-Id or a fresh one),
// a span capture slot the call route fills in, and — when HandlerConfig
// carries an access logger — one structured log record tying them all
// together. The middleware is always on; only the log line is optional.

// ctxKey keys the package's context values without colliding with other
// packages' keys.
type ctxKey int

const (
	requestIDKey ctxKey = iota
	traceKey
)

// RequestID returns the correlation ID the handler assigned to (or
// propagated for) the request whose context this is, or "" outside a
// handler.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// IncomingRequestID returns the correlation ID for r: the caller's
// X-Request-Id when it is short printable ASCII, else a fresh
// 16-hex-digit ID. Anything else a caller sends (header injection,
// binary junk, unbounded length) is discarded so the ID is safe to echo
// in a response header and a log line. The backend middleware and the
// fleet proxy both assign IDs through it, so a trace reads the same on
// every hop.
func IncomingRequestID(r *http.Request) string {
	if id := r.Header.Get(RequestIDHeader); printableID(id) {
		return id
	}
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on the platforms we run on; a zero ID
		// beats panicking in request-handling middleware.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// printableID reports whether id is 1-128 bytes of printable ASCII.
func printableID(id string) bool {
	if len(id) == 0 || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		if id[i] <= ' ' || id[i] > '~' {
			return false
		}
	}
	return true
}

// traceCapture is the per-request slot serveCall deposits its merged
// span record into, so the access-log middleware — which runs outside
// serveCall — can log where the request's time went.
type traceCapture struct {
	mu     sync.Mutex
	has    bool
	t      Trace
	hasEnc bool
	enc    time.Duration
}

func (tc *traceCapture) setCall(t Trace) {
	tc.mu.Lock()
	tc.t, tc.has = t, true
	tc.mu.Unlock()
}

func (tc *traceCapture) setEncode(d time.Duration) {
	tc.mu.Lock()
	tc.enc, tc.hasEnc = d, true
	tc.mu.Unlock()
}

func (tc *traceCapture) snapshot() (t Trace, enc time.Duration, has, hasEnc bool) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.t, tc.enc, tc.has, tc.hasEnc
}

// traceFrom returns the request's span-capture slot, or nil when the
// handler was mounted without the middleware (direct serveCall tests).
func traceFrom(ctx context.Context) *traceCapture {
	tc, _ := ctx.Value(traceKey).(*traceCapture)
	return tc
}

// durMs renders a span for logs and headers, in float milliseconds.
func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// serverTimingValue renders a merged trace as a Server-Timing header
// value (RFC draft syntax: metric;dur=<ms>), so a browser's network
// panel — or curl -v — shows the stage decomposition with no extra
// tooling.
func serverTimingValue(t Trace) string {
	if t.CacheHit {
		return `cache;desc="hit"`
	}
	return fmt.Sprintf("queue_wait;dur=%.3f, batch_assembly;dur=%.3f, forward;dur=%.3f, batch;desc=%q",
		durMs(t.QueueWait), durMs(t.Assembly), durMs(t.Forward), fmt.Sprint(t.Batch))
}

// StatusWriter records the status code and body size passing through a
// ResponseWriter, for access logs. Wrap with
// &StatusWriter{ResponseWriter: w}.
type StatusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *StatusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *StatusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Status returns the response status, 200 when the handler wrote
// nothing (net/http's implicit status).
func (w *StatusWriter) Status() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// Bytes returns the response body bytes written so far.
func (w *StatusWriter) Bytes() int64 { return w.bytes }

// withObservability wraps the handler mux with the per-request plumbing:
// assign or propagate the correlation ID, echo it on the response, stash
// it and a span-capture slot in the context, and — when logger is
// non-nil — emit one structured "request" record per request.
func withObservability(next http.Handler, logger *slog.Logger) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := IncomingRequestID(r)
		w.Header().Set(RequestIDHeader, id)
		tc := &traceCapture{}
		ctx := context.WithValue(r.Context(), requestIDKey, id)
		ctx = context.WithValue(ctx, traceKey, tc)
		r = r.WithContext(ctx)
		if logger == nil {
			next.ServeHTTP(w, r)
			return
		}
		sw := &StatusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		attrs := []slog.Attr{
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.Status()),
			slog.Float64("duration_ms", durMs(time.Since(start))),
			slog.Int64("bytes", sw.Bytes()),
			slog.String("request_id", id),
		}
		if t, enc, has, hasEnc := tc.snapshot(); has {
			if t.CacheHit {
				attrs = append(attrs, slog.Bool("cache_hit", true))
			} else {
				attrs = append(attrs,
					slog.Float64("queue_wait_ms", durMs(t.QueueWait)),
					slog.Float64("batch_assembly_ms", durMs(t.Assembly)),
					slog.Float64("forward_ms", durMs(t.Forward)),
					slog.Int("batch", t.Batch))
			}
			if hasEnc {
				attrs = append(attrs, slog.Float64("encode_ms", durMs(enc)))
			}
		}
		logger.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
	})
}
