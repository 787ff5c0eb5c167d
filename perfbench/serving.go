package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cyclegan"
	"repro/internal/jag"
	"repro/internal/proxy"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// serve_mixed: two in-process backends with jagserve's defaults (MaxBatch
// 64, MaxDelay 2 ms, cache 1024, cost probe on) behind proxy.New's
// defaults, over loopback HTTP, serving the Tiny8 surrogate of
// train_ltfb. An open-loop interactive lane sends single JSON rows at a
// fixed ladder of rates, 25% of them from a 64-point hot set, while a
// closed-loop bulk lane sends 64-row JGT1 frames of unique rows. Chosen
// because the lanes use the same layers differently: a lone row waits out
// the batch window while a full frame flushes at once, and the unique
// bulk rows churn the LRU the hot set relies on.
const (
	modelName    = "jag"
	maxBatch     = 64
	maxDelay     = 2 * time.Millisecond
	cacheSize    = 1024
	frameRows    = 64
	bulkFrames   = 128 // pool cycled by the bulk lane: 8192 rows, far past the cache
	intUnique    = 4096
	hotSet       = 64
	hotShare     = 0.25
	checkEvery   = 4  // every 4th interactive response is decoded and checked
	lossFrames   = 16 // bulk frames whose answers give val_loss_final
	reqTimeout   = 2 * time.Second
	rungRequests = 1000 // the fewest that resolve a p99
	streamLen    = 1 << 16

	// nominalRPS is the operating point at which latency and bulk
	// throughput are reported: about a third of what the interactive
	// lane's share of the nproc connections carries on a 2-CPU host, so
	// that a slower host does not push it into queueing. It runs for
	// nominalShare of the run's seconds.
	nominalRPS   = 100
	nominalShare = 0.9
	// Rung k of the ladder offers nominalRPS * ladderStep^k, k <= maxRung.
	ladderStep = 1.1
	maxRung    = 55
	// gallop is how many rungs the climb skips while rungs pass.
	gallop = 4
)

// servedModel builds the Tiny8 surrogate the fleet serves; every call
// with one seed returns bitwise-identical weights.
func servedModel(seed int64) *cyclegan.Surrogate {
	return cyclegan.New(cyclegan.DefaultConfig(jag.Tiny8), seed)
}

// rowKey identifies an input row by its bits, to attribute forward-pass
// rows to the request that sent them.
type rowKey [jag.InputDim]uint32

func keyOf(x []float32) rowKey {
	var k rowKey
	for i := range k {
		k[i] = math.Float32bits(x[i])
	}
	return k
}

// owners maps rows in flight to the request that sent them; only the
// traced run fills it.
type owners struct {
	mu sync.Mutex
	m  map[rowKey]string
}

func (o *owners) set(id string, rows [][]float32) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, r := range rows {
		o.m[keyOf(r)] = id
	}
}

func (o *owners) get(x []float32) string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.m[keyOf(x)]
}

// pass is one traced forward pass and the requests whose rows rode in it.
type pass struct {
	span              int
	reqs              []string
	bulk, interactive int // rows of each lane
}

// tracedPool wraps a backend's serve.Model: each Run is a forward span.
type tracedPool struct {
	*serve.Pool
	tr  *tracer
	own *owners

	mu     sync.Mutex
	passes []pass
}

func (p *tracedPool) Run(method string, x *tensor.Matrix) (*tensor.Matrix, error) {
	sp := p.tr.begin("serve.forward", -1, "")
	y, err := p.Pool.Run(method, x)
	p.tr.end(sp, x.Rows)
	if sp < 0 {
		return y, err
	}
	ps := pass{span: sp}
	seen := map[string]bool{}
	for i := 0; i < x.Rows; i++ {
		id := p.own.get(x.Row(i))
		if len(id) > 0 && id[0] == 'b' {
			ps.bulk++
		} else {
			ps.interactive++
		}
		if !seen[id] {
			seen[id] = true
			ps.reqs = append(ps.reqs, id)
		}
	}
	p.mu.Lock()
	p.passes = append(p.passes, ps)
	p.mu.Unlock()
	return y, err
}

// tracedHandler records one span per request through an http.Handler,
// keyed by the X-Request-Id the client set.
func tracedHandler(tr *tracer, name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp := tr.begin(name, -1, r.Header.Get(serve.RequestIDHeader))
		next.ServeHTTP(w, r)
		tr.end(sp, 0)
	})
}

type backend struct {
	srv    *serve.Server
	reg    *serve.Registry
	pool   *tracedPool // nil when untraced
	http   *http.Server
	url    string
	served chan error
}

// fleet is the system under test: backends, the proxy in front of them,
// and the capped client transport.
type fleet struct {
	backends []*backend
	front    *http.Server
	frontURL string
	served   chan error
	cancel   context.CancelFunc
	client   *http.Client
}

func listen(h http.Handler) (*http.Server, string, chan error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	s := &http.Server{Handler: h}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	return s, "http://" + ln.Addr().String(), done, nil
}

// startFleet brings up the fleet and returns once the proxy sees every
// backend healthy with a probed capacity. With tr non-nil every backend
// model and handler, and the proxy handler, is wrapped for tracing.
func startFleet(seed int64, tr *tracer, own *owners) (*fleet, error) {
	f := &fleet{}
	var urls []string
	for i := 0; i < 2; i++ {
		pool, err := serve.NewPool([]*cyclegan.Surrogate{servedModel(seed)}, false)
		if err != nil {
			f.close()
			return nil, err
		}
		b := &backend{}
		var model serve.Model = pool
		if tr != nil {
			b.pool = &tracedPool{Pool: pool, tr: tr, own: own}
			model = b.pool
		}
		b.srv = serve.NewServer(model, serve.Config{MaxBatch: maxBatch, MaxDelay: maxDelay, CacheSize: cacheSize})
		b.reg = serve.NewRegistry()
		if err := b.reg.Register(modelName, b.srv); err != nil {
			b.srv.Close()
			f.close()
			return nil, err
		}
		f.backends = append(f.backends, b)
		// The cost probe jagserve runs at start-up, published for the
		// proxy's capacity-weighted routing.
		res, err := serve.CostProbe(pool, serve.MethodPredict, maxBatch)
		if err != nil {
			f.close()
			return nil, err
		}
		b.srv.SetCapacityQPS(res.QPS(maxBatch, pool.Replicas()))
		var h http.Handler = serve.NewRegistryHandler(b.reg, serve.HandlerConfig{})
		if tr != nil {
			h = tracedHandler(tr, "serve.handler", h)
		}
		b.http, b.url, b.served, err = listen(h)
		if err != nil {
			f.close()
			return nil, err
		}
		urls = append(urls, b.url)
	}
	p, err := proxy.New(urls, proxy.Config{})
	if err != nil {
		f.close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	p.Start(ctx)
	var h http.Handler = p
	if tr != nil {
		h = tracedHandler(tr, "proxy.handler", h)
	}
	f.front, f.frontURL, f.served, err = listen(h)
	if err != nil {
		f.close()
		return nil, err
	}
	conns := runtime.NumCPU()
	f.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
	}}
	deadline := time.Now().Add(10 * time.Second)
	for {
		h := p.FleetHealth()
		ready := h.Healthy == len(urls)
		for _, b := range h.Backends {
			ready = ready && b.CapacityQPS > 0
		}
		if ready {
			return f, nil
		}
		if time.Now().After(deadline) {
			f.close()
			return nil, fmt.Errorf("proxy never saw both backends healthy with a probed capacity: %+v", h)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (f *fleet) close() {
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
	if f.front != nil {
		_ = f.front.Close() // Serve's own error below is what matters
		<-f.served
	}
	if f.cancel != nil {
		f.cancel()
	}
	for _, b := range f.backends {
		if b.http != nil {
			_ = b.http.Close()
			<-b.served
		}
		b.reg.Close()
	}
}

// workload is serve_mixed's generated input: the interactive stream and
// the bulk frame pool, with the answers Surrogate.Predict gives on the
// served weights and the simulator's outputs for the bulk rows.
type workload struct {
	intRows   [][]float32 // hot set first, then unique rows
	intBodies [][]byte
	intWant   [][]float32
	intOrder  []int // stream position -> intRows index
	frames    [][][]float32
	frameWant [][][]float32
	frameTrue [][][]float32 // the first lossFrames frames only
}

func newWorkload(seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	ref := servedModel(seed)
	row := func() []float32 {
		x := make([]float32, jag.InputDim)
		for i := range x {
			x[i] = rng.Float32()
		}
		return x
	}
	wl := &workload{}
	for i := 0; i < hotSet+intUnique; i++ {
		x := row()
		body, err := json.Marshal(serve.PredictRequest{Input: x})
		if err != nil {
			return nil, err
		}
		wl.intRows = append(wl.intRows, x)
		wl.intBodies = append(wl.intBodies, body)
	}
	wl.intWant = predictRows(ref, wl.intRows)
	n := 0
	for i := 0; i < streamLen; i++ {
		if rng.Float64() < hotShare {
			wl.intOrder = append(wl.intOrder, rng.Intn(hotSet))
		} else {
			wl.intOrder = append(wl.intOrder, hotSet+n%intUnique)
			n++
		}
	}
	for f := 0; f < bulkFrames; f++ {
		rows := make([][]float32, frameRows)
		for i := range rows {
			rows[i] = row()
		}
		wl.frames = append(wl.frames, rows)
		wl.frameWant = append(wl.frameWant, predictRows(ref, rows))
	}
	for _, rows := range wl.frames[:lossFrames] {
		truth := make([][]float32, len(rows))
		for i, x := range rows {
			var in [jag.InputDim]float64
			for d := range in {
				in[d] = float64(x[d])
			}
			truth[i] = jag.Simulate(jag.Tiny8, in).Output()
		}
		wl.frameTrue = append(wl.frameTrue, truth)
	}
	return wl, nil
}

// predictRows runs Surrogate.Predict over rows, one MaxBatch at a time.
func predictRows(m *cyclegan.Surrogate, rows [][]float32) [][]float32 {
	out := make([][]float32, 0, len(rows))
	for lo := 0; lo < len(rows); lo += maxBatch {
		hi := min(lo+maxBatch, len(rows))
		x := tensor.New(hi-lo, jag.InputDim)
		for i := lo; i < hi; i++ {
			copy(x.Row(i-lo), rows[i])
		}
		y := m.Predict(x)
		for i := 0; i < y.Rows; i++ {
			out = append(out, append([]float32(nil), y.Row(i)...))
		}
	}
	return out
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// client drives both lanes against a fleet and checks every answer it
// decodes against workload's expected outputs.
type client struct {
	f   *fleet
	wl  *workload
	tr  *tracer // nil when untraced
	own *owners

	intSeq, bulkSeq atomic.Int64
	attempted       atomic.Int64
	failed          atomic.Int64
	mismatch        atomic.Int64
	firstErr        atomic.Value // string
	bulkRows        atomic.Int64
	bulkStop        chan struct{}
	bulkDone        sync.WaitGroup
	recording       atomic.Bool
	frameMu         sync.Mutex
	frameSec        []float64
	lossSum         [lossFrames]float64 // written once per frame index
	lossDone        [lossFrames]atomic.Bool
}

func (c *client) fail(err error) {
	c.failed.Add(1)
	c.firstErr.CompareAndSwap(nil, err.Error())
}

func (c *client) wrong(format string, args ...any) {
	c.mismatch.Add(1)
	c.firstErr.CompareAndSwap(nil, fmt.Sprintf(format, args...))
}

func (c *client) post(ctx context.Context, id string, body []byte, bulk bool) (*http.Response, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.f.frontURL+"/v1/models/"+modelName+"/"+serve.MethodPredict, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set(serve.RequestIDHeader, id)
	if bulk {
		req.Header.Set("Content-Type", serve.ContentTypeTensor)
		req.Header.Set("Accept", serve.ContentTypeTensor)
		req.Header.Set(serve.PriorityHeader, "bulk")
	} else {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.f.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("%s: HTTP %d: %s", id, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return resp, raw, nil
}

// interactive sends stream position n, due at due, and returns its
// latency from the due time in ms (+Inf when it failed).
func (c *client) interactive(n int, due time.Time) float64 {
	c.attempted.Add(1)
	idx := c.wl.intOrder[n%len(c.wl.intOrder)]
	id := "i-" + strconv.Itoa(n)
	if c.tr != nil {
		c.own.set(id, c.wl.intRows[idx:idx+1])
	}
	ctx, cancel := context.WithTimeout(context.Background(), reqTimeout)
	defer cancel()
	_, raw, err := c.post(ctx, id, c.wl.intBodies[idx], false)
	if err != nil {
		c.fail(err)
		return math.Inf(1)
	}
	lat := float64(time.Since(due)) / 1e6
	if n%checkEvery == 0 {
		var resp serve.PredictResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			c.wrong("%s: bad JSON answer: %v", id, err)
		} else if len(resp.Errors) > 0 || len(resp.Outputs) != 1 || !sameBits(resp.Outputs[0], c.wl.intWant[idx]) {
			c.wrong("%s: answer differs from Surrogate.Predict", id)
		}
	}
	return lat
}

// bulk sends the next frame of the pool and checks every row of the
// answer.
func (c *client) bulk() {
	c.attempted.Add(1)
	n := int(c.bulkSeq.Add(1) - 1)
	k := n % len(c.wl.frames)
	id := "b-" + strconv.Itoa(n)
	rows := c.wl.frames[k]
	if c.tr != nil {
		c.own.set(id, rows)
	}
	sp := c.tr.begin("wire.encode", -1, id)
	body, err := serve.EncodeFrame(rows)
	c.tr.end(sp, len(rows))
	if err != nil {
		c.fail(err)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), reqTimeout)
	defer cancel()
	resp, raw, err := c.post(ctx, id, body, true)
	if err != nil {
		c.fail(err)
		return
	}
	if ct := resp.Header.Get("Content-Type"); ct != serve.ContentTypeTensor {
		c.wrong("%s: answer is %q, not a tensor frame (row errors?): %.200s", id, ct, raw)
		return
	}
	sp = c.tr.begin("wire.decode", -1, id)
	out, err := serve.DecodeFrame(bytes.NewReader(raw), jag.Tiny8.OutputDim(), frameRows)
	c.tr.end(sp, len(out))
	if err != nil || len(out) != len(rows) {
		c.wrong("%s: bad frame (%d rows): %v", id, len(out), err)
		return
	}
	for i := range out {
		if !sameBits(out[i], c.wl.frameWant[k][i]) {
			c.wrong("%s: row %d differs from Surrogate.Predict", id, i)
			return
		}
	}
	c.bulkRows.Add(int64(len(out)))
	if n < lossFrames {
		var s float64
		for i, r := range out {
			for j, v := range r {
				s += math.Abs(float64(v - c.wl.frameTrue[k][i][j]))
			}
		}
		c.lossSum[n] = s
		c.lossDone[n].Store(true)
	}
}

// valLoss is the mean absolute error of the fleet's answers to the first
// lossFrames bulk frames against the simulator's outputs.
func (c *client) valLoss() (float64, error) {
	var s float64
	for i := range c.lossSum {
		if !c.lossDone[i].Load() {
			return 0, fmt.Errorf("bulk frame %d was never answered", i)
		}
		s += c.lossSum[i]
	}
	return s / float64(lossFrames*frameRows*jag.Tiny8.OutputDim()), nil
}

// bulkLoop runs the closed-loop bulk lane until stop closes, timing
// every frame from send to checked answer while recording is set.
func (c *client) bulkLoop(stop <-chan struct{}) {
	defer c.bulkDone.Done()
	for {
		select {
		case <-stop:
			return
		default:
		}
		t0 := time.Now()
		c.bulk()
		if c.recording.Load() {
			c.frameMu.Lock()
			c.frameSec = append(c.frameSec, time.Since(t0).Seconds())
			c.frameMu.Unlock()
		}
	}
}

// bulkRate is the bulk lane's rows per second over the recorded frames,
// which ran back to back. It is a mean, not a median: frame times are
// bimodal (a frame that shares a backend with interactive rows splits
// across two batches and waits out the batch window once more), and a
// median would jump between the modes.
func (c *client) bulkRate() float64 {
	c.frameMu.Lock()
	defer c.frameMu.Unlock()
	total := 0.0
	for _, s := range c.frameSec {
		total += s
	}
	if total == 0 {
		return 0
	}
	return frameRows * float64(len(c.frameSec)) / total
}

// runRung offers n interactive requests at rps, open loop: request i is
// due i/rps after the rung starts and is timed from then, however late
// the generator sends it.
func (c *client) runRung(rps float64, n int) rung {
	lat := make([]float64, n)
	var wg sync.WaitGroup
	start := time.Now()
	lags := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rps * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lags = append(lags, float64(time.Since(due))/1e6)
		seq := int(c.intSeq.Add(1) - 1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lat[i] = c.interactive(seq, due)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	r := rung{OfferedRPS: rps, Latencies: lat, LagMs: lags}
	for _, l := range lat {
		if math.IsInf(l, 1) {
			r.Failed++
		}
	}
	r.AchievedRPS = float64(n-r.Failed) / elapsed
	return r
}

// warm sends a few requests of each lane so connections and caches of
// the runtime are established before anything is timed.
func (c *client) warm() error {
	for i := 0; i < 8; i++ {
		c.interactive(int(c.intSeq.Add(1)-1), time.Now())
		c.bulk()
	}
	return c.err()
}

func (c *client) err() error {
	if s, ok := c.firstErr.Load().(string); ok {
		return errors.New(s)
	}
	return nil
}

// fleets is how many fleets one serve_mixed run brings up in turn. Each
// probes its backends afresh, and the proxy's routing split between them
// follows the probed capacities, which differ from probe to probe; the
// nominal rung is spread over every fleet so that a run reports over
// several splits rather than one.
const fleets = 5

// runServe measures serve_mixed: fleets fleets are brought up in turn
// (set-up time is the median), each serving an equal share of the
// nominal rung, which takes nominalShare of seconds in all, while the
// bulk lane runs closed-loop. Traced, spans are kept for the nominal rung
// only; the ladder then climbs on the last fleet with tracing off.
func runServe(seed int64, seconds float64, traced bool) (*outcome, error) {
	wl, err := newWorkload(seed)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	var own *owners
	if traced {
		tr = newTracer()
		own = &owners{m: map[rowKey]string{}}
	}
	c := &client{wl: wl, tr: tr, own: own}
	out := &outcome{metrics: map[string]float64{}}
	m := out.metrics
	var setups []float64
	var from time.Duration
	var cache cacheCount
	var pools []*tracedPool
	nominal := rung{OfferedRPS: nominalRPS}
	var ladder []rung
	segment := max(rungRequests/fleets, int(seconds*nominalShare*nominalRPS/fleets))
	for rep := 0; rep < fleets; rep++ {
		start := time.Now()
		f, err := startFleet(seed, tr, own)
		if err != nil {
			return nil, err
		}
		c.f = f
		if err := c.warm(); err != nil {
			f.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if traced && rep == 0 {
			m["trace.overhead"] = c.overhead()
			tr.on.Store(true)
			from = tr.now()
		}
		before := c.cacheStats()
		c.startBulk()
		c.recording.Store(true)
		seg := c.runRung(nominalRPS, segment)
		c.recording.Store(false)
		after := c.cacheStats()
		cache.hits += after.hits - before.hits
		cache.misses += after.misses - before.misses
		nominal.Latencies = append(nominal.Latencies, seg.Latencies...)
		nominal.LagMs = append(nominal.LagMs, seg.LagMs...)
		nominal.Failed += seg.Failed
		nominal.AchievedRPS += seg.AchievedRPS / fleets
		if traced && rep == fleets-1 {
			tr.on.Store(false)
			ladder = append([]rung{nominal}, c.climb()...)
		}
		c.stopBulk()
		for i, b := range f.backends {
			if b.pool != nil {
				pools = append(pools, b.pool)
			}
			st := b.srv.Stats()
			fmt.Fprintf(os.Stderr, "fleet %d backend %d: probed capacity %.0f rows/s, served %v\n", rep, i, b.srv.CapacityQPS(), st.LaneRequests[serve.MethodPredict])
		}
		f.close()
	}
	if ladder == nil {
		ladder = []rung{nominal}
	}

	out.attempted = c.attempted.Load()
	out.failed = c.failed.Load()
	if err := c.err(); err != nil {
		out.check(c.mismatch.Load() == 0, "%d answers differ from Surrogate.Predict; first: %v", c.mismatch.Load(), err)
		fmt.Fprintf(os.Stderr, "perfbench: serve_mixed: %d of %d requests failed; first problem: %v\n", out.failed, out.attempted, err)
	}
	for _, r := range ladder {
		p50, _ := percentile(r.Latencies, 0.5)
		p95, _ := percentile(r.Latencies, 0.95)
		p99, ok := percentile(r.Latencies, 0.99)
		fmt.Fprintf(os.Stderr, "rung %4.0f rps: achieved %6.1f, p50 %6.2f ms, p95 %6.2f ms, p99 %7.2f ms (ok=%v), failed %d, pass=%v\n",
			r.OfferedRPS, r.AchievedRPS, p50, p95, p99, ok, r.Failed, r.passes())
	}
	if traced {
		m["loadgen.interactive_max_rps"] = maxPassingRPS(ladder)
		if p99, ok := percentile(nominal.Latencies, 0.99); ok {
			m["loadgen.interactive_p99_ms"] = p99
		}
		if p99, ok := percentile(nominal.LagMs, 0.99); ok {
			m["loadgen.lag_ms.p99"] = p99
		}
		serveLayers(m, c, pools, from, cache, seed)
		return out, nil
	}
	p50, ok := percentile(nominal.Latencies, 0.5)
	if !ok {
		return nil, fmt.Errorf("nominal rung too short for a p50")
	}
	loss, err := c.valLoss()
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	m["setup_s"] = median(setups)
	m["samples_per_s"] = c.bulkRate()
	m["latency_p50_ms"] = p50
	m["val_loss_final"] = loss
	m["peak_rss_mb"] = rss
	return out, nil
}

// startBulk starts the closed-loop bulk lane; stopBulk stops it and
// returns once its last frame is answered.
func (c *client) startBulk() {
	c.bulkStop = make(chan struct{})
	c.bulkDone.Add(1)
	go c.bulkLoop(c.bulkStop)
}

func (c *client) stopBulk() {
	close(c.bulkStop)
	c.bulkDone.Wait()
}

// climb offers ladder rungs above the nominal one. It gallops up every
// gallop-th rung while they pass, then climbs one rung at a time from the
// last passing one until two rungs in a row fail, so that one noisy rung
// below the knee does not end it.
func (c *client) climb() []rung {
	var ladder []rung
	offer := func(k int) bool {
		r := c.runRung(nominalRPS*math.Pow(ladderStep, float64(k)), rungRequests)
		ladder = append(ladder, r)
		return r.passes()
	}
	k := 0
	for k+gallop <= maxRung && offer(k+gallop) {
		k += gallop
	}
	for failing := 0; failing < 2 && k < maxRung; {
		k++
		if offer(k) {
			failing = 0
		} else {
			failing++
		}
	}
	return ladder
}

type cacheCount struct{ hits, misses int64 }

// cacheStats sums the backends' response-cache counters.
func (c *client) cacheStats() cacheCount {
	var n cacheCount
	for _, b := range c.f.backends {
		s := b.srv.Stats()
		n.hits += s.CacheHits
		n.misses += s.CacheMisses
	}
	return n
}

// overhead alternates short bulk-only bursts with tracing off and on
// and returns the untraced rate over the traced rate.
func (c *client) overhead() float64 {
	var off, on []float64
	for i := 0; i < 6; i++ {
		c.tr.on.Store(i%2 == 1)
		rows0, t0 := c.bulkRows.Load(), time.Now()
		for time.Since(t0) < 400*time.Millisecond {
			c.bulk()
		}
		rate := float64(c.bulkRows.Load()-rows0) / time.Since(t0).Seconds()
		if i%2 == 1 {
			on = append(on, rate)
		} else {
			off = append(off, rate)
		}
	}
	c.tr.on.Store(false)
	return median(off) / median(on)
}

// serveLayers derives serve_mixed's per-layer metrics from the spans
// recorded since from, linking them by request id: a proxy span's
// children are the backend handler spans with its id (one per attempt),
// and a handler's children are the forward passes its rows rode in.
func serveLayers(m map[string]float64, c *client, pools []*tracedPool, from time.Duration, cache cacheCount, seed int64) {
	spans := c.tr.snapshot()
	since := func(name string) []int {
		var out []int
		for _, i := range named(spans, name) {
			if spans[i].Start >= from {
				out = append(out, i)
			}
		}
		return out
	}
	handlers := map[string][]int{}
	var intMs, bulkMs []float64
	for _, i := range since("serve.handler") {
		id := spans[i].ID
		handlers[id] = append(handlers[id], i)
		if strings.HasPrefix(id, "b-") {
			bulkMs = append(bulkMs, spans[i].ms())
		} else {
			intMs = append(intMs, spans[i].ms())
		}
	}
	forward := map[string][]interval{}
	var fwdMs []float64
	var fwdSec float64
	var rows, passes, bulkRows, bulkWeighted, intRows, intWeighted float64
	for _, pool := range pools {
		pool.mu.Lock()
		for _, p := range pool.passes {
			sp := spans[p.span]
			if sp.Start < from || sp.End < 0 {
				continue
			}
			for _, id := range p.reqs {
				forward[id] = append(forward[id], sp.interval())
			}
			if hs := handlers[p.reqs[0]]; len(hs) > 0 {
				spans[p.span].Parent = hs[len(hs)-1]
			}
			fwdMs = append(fwdMs, sp.ms())
			fwdSec += sp.ms() / 1e3
			n := float64(sp.Work)
			rows += n
			passes++
			bulkRows += float64(p.bulk)
			bulkWeighted += float64(p.bulk) * n
			intRows += float64(p.interactive)
			intWeighted += float64(p.interactive) * n
		}
		pool.mu.Unlock()
	}
	var waitMs []float64
	for id, hs := range handlers {
		for _, i := range hs {
			waitMs = append(waitMs, float64(selfTime(spans[i].interval(), forward[id]))/1e6)
		}
	}
	var selfMs []float64
	attempts := 0
	proxied := since("proxy.handler")
	for _, i := range proxied {
		var kids []interval
		for _, h := range handlers[spans[i].ID] {
			kids = append(kids, spans[h].interval())
			spans[h].Parent = i
		}
		attempts += len(kids)
		selfMs = append(selfMs, float64(selfTime(spans[i].interval(), kids))/1e6)
	}
	mean := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	m["serve.handler_ms.interactive.p50"] = median(intMs)
	m["serve.handler_ms.bulk.p50"] = median(bulkMs)
	m["serve.wait_ms.p50"] = median(waitMs)
	if n := cache.hits + cache.misses; n > 0 {
		m["serve.cache_hit_ratio"] = float64(cache.hits) / float64(n)
	}
	m["serve.forward_ms.p50"] = median(fwdMs)
	if flops, err := archOf(cyclegan.DefaultConfig(jag.Tiny8)).ServeFlopsPerRow(serve.MethodPredict); err == nil && fwdSec > 0 {
		m["tensor.gflops_computed"] = flops * rows / fwdSec / 1e9
	}
	if passes > 0 {
		m["serve.rows_per_pass"] = rows / passes
	}
	if bulkRows > 0 {
		m["serve.rows_per_pass.bulk"] = bulkWeighted / bulkRows
	}
	if intRows > 0 {
		m["serve.rows_per_pass.interactive"] = intWeighted / intRows
	}
	m["wire.encode_ms_per_frame"] = mean(durationsMs(spans, since("wire.encode")))
	m["wire.decode_ms_per_frame"] = mean(durationsMs(spans, since("wire.decode")))
	m["proxy.self_ms.p50"] = median(selfMs)
	if len(proxied) > 0 {
		m["proxy.attempts_per_request"] = float64(attempts) / float64(len(proxied))
	}
	writeSpans(spans, "serve_mixed", seed)
}
