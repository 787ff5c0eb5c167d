package serve

import (
	"sync"
	"time"

	"repro/internal/metrics"
)

// Pipeline stage names: the spans every request passes through, each
// with its own latency histogram. Together they decompose end-to-end
// latency the same way perfmodel.ServingScenario does analytically
// (window fill, replica wait, pass cost), so an operator can see
// *where* a latency regression lives instead of only that one exists.
const (
	// StageQueueWait is enqueue → batch flush: the time a row spends in
	// its priority lane while the batch window fills (the model's
	// FillSec, plus any lane backlog).
	StageQueueWait = "queue_wait"
	// StageAssembly is batch flush → forward start: waiting for a free
	// worker (the M/D/c queue wait) plus stale-row reaping and matrix
	// gather. Recorded once per batch.
	StageAssembly = "batch_assembly"
	// StageForward is the model's batched forward pass: the whole
	// Model.Run call, fixed per-dispatch cost included. Recorded once
	// per batch.
	StageForward = "forward"
	// StageEncode is the HTTP response encoding span (JSON or binary
	// frame), recorded by the handler once per response. In-process
	// callers never pay it.
	StageEncode = "encode"
)

// stageNames enumerates the stages in pipeline order, for deterministic
// rendering.
var stageNames = []string{StageQueueWait, StageAssembly, StageForward, StageEncode}

// Trace is one request's span record: where its latency went, stage by
// stage. The pipeline fills it as the request moves; CallTrace returns
// it to the caller and the HTTP handler renders it as a Server-Timing
// header and a structured log field.
type Trace struct {
	// QueueWait is enqueue → batch flush (StageQueueWait).
	QueueWait time.Duration
	// Assembly is batch flush → forward start, shared by every row of
	// the batch (StageAssembly).
	Assembly time.Duration
	// Forward is the batched forward pass, shared by every row of the
	// batch (StageForward).
	Forward time.Duration
	// Batch is the number of live rows in the forward pass.
	Batch int
	// CacheHit marks a row answered from the LRU cache: no other span
	// applies.
	CacheHit bool
}

// Stats aggregates the serving counters behind one mutex, with the
// latency histograms outside it: metrics.Histogram is lock-free, so the
// hot path records observations and a concurrent /metrics scrape reads
// snapshots without either blocking the other.
type Stats struct {
	mu          sync.Mutex
	start       time.Time
	requests    int64
	perMethod   map[string]int64
	perLane     map[string]*[numLanes]int64 // method → per-lane completed rows
	overloads   int64
	expired     int64
	cancelled   int64
	failures    int64
	cacheHits   int64
	cacheMisses int64
	latency     metrics.Meter // milliseconds, enqueue to scatter
	batchOccup  metrics.Meter // requests per forward pass

	// latencyH is the end-to-end latency histogram (seconds) the
	// quantile fields of StatsSnapshot — and the capacity-model
	// validation — read from.
	latencyH *metrics.Histogram
	// stageH holds one histogram (seconds) per pipeline stage.
	stageH map[string]*metrics.Histogram
}

// newStats starts the throughput clock.
func newStats() *Stats {
	s := &Stats{
		start:     time.Now(),
		perMethod: make(map[string]int64),
		perLane:   make(map[string]*[numLanes]int64),
		latencyH:  metrics.NewHistogram(metrics.LatencyBuckets()),
		stageH:    make(map[string]*metrics.Histogram, len(stageNames)),
	}
	for _, st := range stageNames {
		s.stageH[st] = metrics.NewHistogram(metrics.LatencyBuckets())
	}
	return s
}

// request records one completed row of the named method and lane and
// its queue-to-reply latency.
func (s *Stats) request(method string, class Priority, d time.Duration) {
	s.latencyH.Observe(d.Seconds())
	s.mu.Lock()
	s.requests++
	s.perMethod[method]++
	lanes, ok := s.perLane[method]
	if !ok {
		lanes = new([numLanes]int64)
		s.perLane[method] = lanes
	}
	if class >= 0 && class < numLanes {
		lanes[class]++
	}
	s.latency.Add(float64(d) / float64(time.Millisecond))
	s.mu.Unlock()
}

// observeStage records one span of the named pipeline stage, in
// seconds. Unknown stages are dropped rather than panicking the worker.
func (s *Stats) observeStage(stage string, sec float64) {
	if h, ok := s.stageH[stage]; ok {
		h.Observe(sec)
	}
}

// batch records one forward pass of n coalesced requests.
func (s *Stats) batch(n int) {
	s.mu.Lock()
	s.batchOccup.Add(float64(n))
	s.mu.Unlock()
}

// overload counts one request rejected by backpressure.
func (s *Stats) overload() {
	s.mu.Lock()
	s.overloads++
	s.mu.Unlock()
}

// expire counts one request dropped — at admission or at flush time,
// but always before a forward pass — because its deadline passed.
func (s *Stats) expire() {
	s.mu.Lock()
	s.expired++
	s.mu.Unlock()
}

// cancel counts one request dropped before a forward pass because its
// context was cancelled.
func (s *Stats) cancel() {
	s.mu.Lock()
	s.cancelled++
	s.mu.Unlock()
}

// failure counts n rows failed by an error from the model's own
// forward pass — the only error class that is the model's fault rather
// than the caller's or the queue's, so it gets its own counter and
// cannot hide as "no traffic".
func (s *Stats) failure(n int) {
	s.mu.Lock()
	s.failures += int64(n)
	s.mu.Unlock()
}

// cacheHit counts one request answered from the LRU cache.
func (s *Stats) cacheHit() {
	s.mu.Lock()
	s.cacheHits++
	s.mu.Unlock()
}

// cacheMiss counts one request that had to run the model.
func (s *Stats) cacheMiss() {
	s.mu.Lock()
	s.cacheMisses++
	s.mu.Unlock()
}

// StageSnapshot summarizes one pipeline stage's latency histogram for
// the /v1/models/{name}/stats JSON endpoint, all times in milliseconds.
type StageSnapshot struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
}

// stageSnapshot renders one histogram snapshot in milliseconds.
func stageSnapshot(h metrics.HistogramSnapshot) StageSnapshot {
	return StageSnapshot{
		Count:  int64(h.Count),
		MeanMs: 1e3 * h.Mean(),
		P50Ms:  1e3 * h.Quantile(0.50),
		P90Ms:  1e3 * h.Quantile(0.90),
		P99Ms:  1e3 * h.Quantile(0.99),
		P999Ms: 1e3 * h.Quantile(0.999),
	}
}

// StatsSnapshot is a consistent copy of the serving counters, shaped for
// the /v1/models/{name}/stats JSON endpoint.
type StatsSnapshot struct {
	Requests int64 `json:"requests"`
	// MethodRequests splits Requests by model method ("predict",
	// "invert", ...); methods never served are absent.
	MethodRequests map[string]int64 `json:"method_requests,omitempty"`
	// LaneRequests splits MethodRequests by priority lane, method →
	// lane name → completed rows.
	LaneRequests map[string]map[string]int64 `json:"lane_requests,omitempty"`
	Batches      int                         `json:"batches"`
	Overloads    int64                       `json:"overloads"`
	Expired      int64                       `json:"expired"`
	Cancelled    int64                       `json:"cancelled"`
	// ModelFailures counts rows failed by the model's forward pass
	// itself (ErrModelFailure, HTTP 500).
	ModelFailures int64   `json:"model_failures"`
	CacheHits     int64   `json:"cache_hits"`
	CacheMisses   int64   `json:"cache_misses"`
	MeanBatch     float64 `json:"mean_batch"`
	MaxBatch      float64 `json:"max_batch"`
	MeanLatMs     float64 `json:"mean_latency_ms"`
	MaxLatMs      float64 `json:"max_latency_ms"`
	// LatencyP50Ms..P999Ms are end-to-end latency quantiles estimated
	// from the streaming histogram — the measured counterpart of
	// perfmodel.ServingScenario's predicted P50/P99.
	LatencyP50Ms  float64 `json:"latency_p50_ms"`
	LatencyP90Ms  float64 `json:"latency_p90_ms"`
	LatencyP99Ms  float64 `json:"latency_p99_ms"`
	LatencyP999Ms float64 `json:"latency_p999_ms"`
	// Stages decomposes latency by pipeline stage (queue_wait,
	// batch_assembly, forward, encode) — where the milliseconds went.
	Stages       map[string]StageSnapshot `json:"stages,omitempty"`
	ThroughputPS float64                  `json:"throughput_per_sec"`
	UptimeSec    float64                  `json:"uptime_sec"`
}

// snapshot captures the counters at one instant.
func (s *Stats) snapshot() StatsSnapshot {
	lat := s.latencyH.Snapshot()
	stages := make(map[string]StageSnapshot, len(stageNames))
	for _, st := range stageNames {
		if snap := s.stageH[st].Snapshot(); snap.Count > 0 {
			stages[st] = stageSnapshot(snap)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	up := time.Since(s.start).Seconds()
	var methods map[string]int64
	if len(s.perMethod) > 0 {
		methods = make(map[string]int64, len(s.perMethod))
		for k, v := range s.perMethod {
			methods[k] = v
		}
	}
	var lanes map[string]map[string]int64
	if len(s.perLane) > 0 {
		lanes = make(map[string]map[string]int64, len(s.perLane))
		for m, counts := range s.perLane {
			byLane := make(map[string]int64, numLanes)
			for l := Priority(0); l < numLanes; l++ {
				if counts[l] > 0 {
					byLane[l.String()] = counts[l]
				}
			}
			lanes[m] = byLane
		}
	}
	snap := StatsSnapshot{
		Requests:       s.requests,
		MethodRequests: methods,
		LaneRequests:   lanes,
		Batches:        s.batchOccup.Count(),
		Overloads:      s.overloads,
		Expired:        s.expired,
		Cancelled:      s.cancelled,
		ModelFailures:  s.failures,
		CacheHits:      s.cacheHits,
		CacheMisses:    s.cacheMisses,
		MeanBatch:      s.batchOccup.Mean(),
		MaxBatch:       s.batchOccup.Max(),
		MeanLatMs:      s.latency.Mean(),
		MaxLatMs:       s.latency.Max(),
		LatencyP50Ms:   1e3 * lat.Quantile(0.50),
		LatencyP90Ms:   1e3 * lat.Quantile(0.90),
		LatencyP99Ms:   1e3 * lat.Quantile(0.99),
		LatencyP999Ms:  1e3 * lat.Quantile(0.999),
		Stages:         stages,
		UptimeSec:      up,
	}
	if up > 0 {
		snap.ThroughputPS = float64(s.requests+s.cacheHits) / up
	}
	return snap
}

// LatencyHistogram returns a snapshot of the end-to-end request latency
// histogram (seconds), the raw-bucket form the Prometheus exposition
// renders.
func (s *Server) LatencyHistogram() metrics.HistogramSnapshot {
	return s.stats.latencyH.Snapshot()
}

// StageHistograms returns a snapshot of every pipeline-stage latency
// histogram (seconds), keyed by stage name.
func (s *Server) StageHistograms() map[string]metrics.HistogramSnapshot {
	out := make(map[string]metrics.HistogramSnapshot, len(stageNames))
	for _, st := range stageNames {
		out[st] = s.stats.stageH[st].Snapshot()
	}
	return out
}

// Inflight returns the number of requests currently admitted to the
// pipeline (queued or in a forward pass) — the live queue depth behind
// the QueueDepth backpressure bound.
func (s *Server) Inflight() int { return int(s.inflight.Load()) }

// LaneDepths returns the number of rows currently queued per priority
// lane, summed across methods — the scrape-time lane occupancy gauge.
func (s *Server) LaneDepths() map[string]int {
	out := make(map[string]int, numLanes)
	for l := Priority(0); l < numLanes; l++ {
		n := 0
		for _, q := range s.queues {
			n += len(q.lanes[l])
		}
		out[l.String()] = n
	}
	return out
}
