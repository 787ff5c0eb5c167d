package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/cyclegan"
	"repro/internal/datastore"
	"repro/internal/ensemble"
	"repro/internal/jag"
	"repro/internal/ltfb"
	"repro/internal/nn"
	"repro/internal/perfmodel"
	"repro/internal/reader"
	"repro/internal/tensor"
	"repro/internal/trainer"
)

// train_ltfb: 2 trainers x 1 rank, one per core, Tiny8 geometry with the
// default paper-shaped nets (encoder 128,64), batch 32 and a tournament
// every 8 steps over an in-memory corpus, as core.RunPopulation runs it.
// Chosen because each step is GEMM-bound compute and the tournaments are
// the only cross-trainer work: with one rank per trainer Reduce returns at
// once and every data-store fetch is local.
//
// Rounds is the fixed schedule after which val_loss_final is read; the
// timed loop keeps running rounds past it until its time is spent.
func ltfbConfig() core.QualityConfig {
	g := jag.Tiny8
	return core.QualityConfig{
		Geometry:        g,
		Model:           cyclegan.DefaultConfig(g),
		Trainers:        2,
		RanksPerTrainer: 1,
		TrainSamples:    1024,
		ValSamples:      128,
		TournSamples:    64,
		BatchSize:       32,
		Rounds:          16,
		RoundSteps:      8,
		Partition:       core.PartitionContiguous,
		LTFB:            true,
	}
}

// train_dataparallel: 1 trainer x 2 ranks in the strong-scaling regime,
// 16x16 images (3 views x 2 channels), the same paper-shaped nets and a
// global batch of 4 (2 rows per rank). Chosen because at so small a
// per-rank batch the ring allreduce and the data-store exchange carry a
// large share of every step, and ltfb is not used (1 trainer).
func dataParallelConfig() core.QualityConfig {
	g := jag.Config{ImageSize: 16, Views: 3, Channels: 2}
	return core.QualityConfig{
		Geometry:        g,
		Model:           cyclegan.DefaultConfig(g),
		Trainers:        1,
		RanksPerTrainer: 2,
		TrainSamples:    256,
		ValSamples:      64,
		TournSamples:    16,
		BatchSize:       4,
		Rounds:          16,
		RoundSteps:      16,
		Partition:       core.PartitionContiguous,
		LTFB:            true,
	}
}

// archOf describes a cyclegan configuration to the performance model.
func archOf(c cyclegan.Config) perfmodel.Arch {
	return perfmodel.Arch{
		InputDim:      jag.InputDim,
		OutputDim:     c.Geometry.OutputDim(),
		LatentDim:     c.LatentDim,
		EncoderHidden: c.EncoderHidden,
		ForwardHidden: c.ForwardHidden,
		InverseHidden: c.InverseHidden,
		DiscHidden:    c.DiscHidden,
	}
}

// corpus is a population's in-memory data: train, validation and
// tournament sets from disjoint regions of the sampling plan, laid out as
// core.RunPopulation lays them out.
type corpus struct {
	train, val *reader.SliceDataset
	tx, ty     *tensor.Matrix
}

func newCorpus(c core.QualityConfig) (*corpus, error) {
	dim := c.Geometry.SampleDim()
	train, err := reader.NewSliceDataset(dim, ensemble.GenerateInMemory(c.Geometry, 0, c.TrainSamples))
	if err != nil {
		return nil, err
	}
	val, err := reader.NewSliceDataset(dim, ensemble.GenerateInMemory(c.Geometry, c.TrainSamples, c.ValSamples))
	if err != nil {
		return nil, err
	}
	tourn := ensemble.GenerateInMemory(c.Geometry, c.TrainSamples+c.ValSamples, c.TournSamples)
	tx := tensor.New(c.TournSamples, jag.InputDim)
	ty := tensor.New(c.TournSamples, c.Geometry.OutputDim())
	for i, rec := range tourn {
		copy(tx.Row(i), rec[:jag.InputDim])
		copy(ty.Row(i), rec[jag.InputDim:])
	}
	return &corpus{train: train, val: val, tx: tx, ty: ty}, nil
}

// trainOpts selects how a population is driven.
type trainOpts struct {
	// seconds is the minimum wall time of the timed loop, which also runs
	// at least the configured Rounds.
	seconds float64
	// tr, when non-nil, installs the tracing wrappers: on every round
	// when traceEvery is 1, on every other round when it is 2 (the
	// untraced rounds give the overhead baseline).
	tr         *tracer
	traceEvery int
}

// rankLog is what one rank records; only its rank's goroutine writes it,
// and it is read after comm.World.Run returns.
type rankLog struct {
	stepMs     []float64 // every Advance(1), traced round or not
	roundSec   []float64 // rank 0: wall time per round
	roundTrace []bool    // rank 0: whether the round was traced
	store      datastore.Stats
	adoptions  int
	tourneys   int
	err        error
}

// trainRun accumulates what every population of one run recorded.
type trainRun struct {
	setupSec     []float64
	stepMs       []float64
	roundSec     []float64 // rank 0 of each population
	roundTrace   []bool
	finalBest    []float64 // population best after the fixed schedule
	roundLosses  [][]float64
	store        datastore.Stats
	adoptions    int
	tourneys     int
	exchangeSize int // tournament payload one trainer sends per round
	allocBytes   uint64
	gcPauseNs    uint64
}

// runPopulation drives one population the way core.RunPopulation does,
// but one step at a time through trainer.Advance(1), timing each step,
// round and (when traced) layer call. It builds the population setupReps
// times, timing each build, and trains the last one.
func runPopulation(c core.QualityConfig, o trainOpts, setupReps int, acc *trainRun) error {
	if err := c.Validate(); err != nil {
		return err
	}
	for rep := 0; rep < setupReps; rep++ {
		start := time.Now()
		data, err := newCorpus(c)
		if err != nil {
			return err
		}
		if err := buildAndTrain(c, o, data, start, rep == setupReps-1, acc); err != nil {
			return err
		}
	}
	return nil
}

// buildAndTrain builds every rank of the population, recording the time
// from start until all were built, and when train is set runs the timed
// loop.
func buildAndTrain(c core.QualityConfig, o trainOpts, data *corpus, start time.Time, train bool, acc *trainRun) error {
	worldSize := c.Trainers * c.RanksPerTrainer
	w := comm.NewWorld(worldSize)
	logs := make([]rankLog, worldSize)
	var losses [][]float64
	var mem0, mem1 runtime.MemStats

	w.Run(func(wc *comm.Comm) {
		lg := &logs[wc.Rank()]
		trainerID := wc.Rank() / c.RanksPerTrainer
		tc := wc.Split(trainerID, 0)
		var tr *trainer.Trainer
		var member *ltfb.Member
		var raw *cyclegan.Surrogate
		sub, err := reader.NewSubset(data.train, reader.PartitionContiguous(c.TrainSamples, c.Trainers, trainerID))
		if err == nil {
			store := datastore.New(tc, sub, datastore.ModeDynamic)
			raw = cyclegan.New(c.Model, c.Seed+int64(trainerID)*101)
			tr, err = trainer.New(trainer.Config{
				ID:          trainerID,
				BatchSize:   c.BatchSize,
				XDim:        jag.InputDim,
				ShuffleSeed: c.Seed + int64(trainerID),
			}, tc, raw, store, sub)
		}
		lg.err = err
		if err == nil {
			member = &ltfb.Member{
				Cfg: ltfb.Config{
					NumTrainers: c.Trainers,
					RoundSteps:  c.RoundSteps,
					PairSeed:    c.Seed + 99,
					Metric:      c.Metric,
				},
				TrainerID: trainerID,
				World:     wc,
				T:         tr,
				Scratch:   cyclegan.New(c.Model, 0),
				TournX:    data.tx,
				TournY:    data.ty,
			}
		}
		// Every rank votes on whether its build failed, so all of them
		// stop together.
		if anyVote(wc, lg.err != nil) {
			return
		}
		if wc.Rank() == 0 {
			acc.setupSec = append(acc.setupSec, time.Since(start).Seconds())
			acc.exchangeSize = len(nn.MarshalNetworks(raw.ExchangeNets())) + len(member.Lineage())
			runtime.ReadMemStats(&mem0)
		}
		if !train {
			return
		}
		traced := &tracedModel{Surrogate: raw, tr: o.tr, parent: -1}
		id := fmt.Sprintf("s%d.t%d.r%d", c.Seed, trainerID, tc.Rank())
		loopStart := time.Now()
		for round := 0; ; round++ {
			roundStart := time.Now()
			tracing := o.tr != nil && (o.traceEvery <= 1 || round%o.traceEvery == 0)
			tr.Model = raw
			if tracing {
				tr.Model = traced
			}
			before := tr.Store.Stats()
			for s := 0; s < c.RoundSteps && lg.err == nil; s++ {
				sp := beginIf(o.tr, tracing, "trainer.step", id)
				traced.parent = sp
				t0 := time.Now()
				lg.err = tr.Advance(1)
				lg.stepMs = append(lg.stepMs, float64(time.Since(t0))/1e6)
				o.tr.end(sp, c.BatchSize)
			}
			if tracing {
				lg.store = addStats(lg.store, before, tr.Store.Stats())
			}
			if lg.err == nil && c.LTFB && c.Trainers > 1 {
				sp := beginIf(o.tr, tracing, "ltfb.tournament", id)
				r, err := member.Tournament(round)
				o.tr.end(sp, 0)
				lg.err = err
				lg.tourneys++
				if r.Adopted {
					lg.adoptions++
				}
			}
			var loss float64
			if lg.err == nil {
				sp := beginIf(o.tr, tracing, "trainer.evaluate", id)
				loss, lg.err = tr.Evaluate(data.val, c.BatchSize)
				o.tr.end(sp, 0)
			}
			if anyVote(wc, lg.err != nil) {
				return
			}
			all := wc.AllgatherFloat64(loss)
			if wc.Rank() == 0 {
				row := make([]float64, c.Trainers)
				for k := range row {
					row[k] = all[k*c.RanksPerTrainer]
				}
				losses = append(losses, row)
				lg.roundSec = append(lg.roundSec, time.Since(roundStart).Seconds())
				lg.roundTrace = append(lg.roundTrace, tracing)
			}
			done := round+1 >= c.Rounds && time.Since(loopStart).Seconds() >= o.seconds
			// Rank 0's clock decides, so every rank leaves after the
			// same round.
			if stop := wc.AllgatherFloat64(boolF(done)); stop[0] != 0 {
				if wc.Rank() == 0 {
					runtime.ReadMemStats(&mem1)
				}
				return
			}
		}
	})
	for _, lg := range logs {
		if lg.err != nil {
			return lg.err
		}
	}
	if !train {
		return nil
	}
	best := math.Inf(1)
	for _, l := range losses[c.Rounds-1] {
		best = math.Min(best, l)
	}
	acc.finalBest = append(acc.finalBest, best)
	acc.roundLosses = append(acc.roundLosses, losses...)
	for i, lg := range logs {
		acc.stepMs = append(acc.stepMs, lg.stepMs...)
		if i == 0 {
			acc.roundSec = append(acc.roundSec, lg.roundSec...)
			acc.roundTrace = append(acc.roundTrace, lg.roundTrace...)
		}
		acc.store = addStats(acc.store, datastore.Stats{}, lg.store)
		acc.adoptions += lg.adoptions
		acc.tourneys += lg.tourneys
	}
	acc.allocBytes += mem1.TotalAlloc - mem0.TotalAlloc
	acc.gcPauseNs += mem1.PauseTotalNs - mem0.PauseTotalNs
	return nil
}

// anyVote is a collective: it reports whether any rank voted true.
func anyVote(wc *comm.Comm, v bool) bool {
	for _, x := range wc.AllgatherFloat64(boolF(v)) {
		if x != 0 {
			return true
		}
	}
	return false
}

func boolF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func beginIf(tr *tracer, on bool, name, id string) int {
	if !on {
		return -1
	}
	return tr.begin(name, -1, id)
}

// addStats accumulates the data-store counters moved between two
// snapshots.
func addStats(acc, before, after datastore.Stats) datastore.Stats {
	acc.LocalHits += after.LocalHits - before.LocalHits
	acc.RemoteSamples += after.RemoteSamples - before.RemoteSamples
	acc.BackingReads += after.BackingReads - before.BackingReads
	acc.BytesSent += after.BytesSent - before.BytesSent
	acc.BytesReceived += after.BytesReceived - before.BytesReceived
	return acc
}

// tracedModel wraps a rank's surrogate: TrainStep becomes a span whose
// Reduce calls are child spans, so TrainStep's self time is the model's
// compute alone.
type tracedModel struct {
	*cyclegan.Surrogate
	tr     *tracer
	parent int // the enclosing trainer.step span
}

func (m *tracedModel) TrainStep(x, y *tensor.Matrix, r nn.Reducer) map[string]float64 {
	sp := m.tr.begin("cyclegan.train_step", m.parent, "")
	losses := m.Surrogate.TrainStep(x, y, tracedReducer{inner: r, tr: m.tr, parent: sp})
	m.tr.end(sp, x.Rows)
	return losses
}

// tracedReducer times each Reduce and counts the bytes it hands to the
// ring allreduce; a one-rank AllreduceReducer returns before any
// communication, so it counts none.
type tracedReducer struct {
	inner  nn.Reducer
	tr     *tracer
	parent int
}

func (r tracedReducer) Reduce(params []*nn.Param) {
	bytes := 0
	if ar, ok := r.inner.(trainer.AllreduceReducer); ok && ar.C.Size() > 1 {
		for _, p := range params {
			bytes += 4 * len(p.Grad.Data)
		}
	}
	sp := r.tr.begin("comm.allreduce", r.parent, "")
	r.inner.Reduce(params)
	r.tr.end(sp, bytes)
}

// trainCheck runs the loop-equivalence check on a short schedule: the
// benchmark's training loop, untraced and (when traced) with the wrappers on
// every round, must reproduce core.RunPopulation's per-round validation
// losses bitwise.
func trainCheck(c core.QualityConfig, traced bool) error {
	c.Rounds, c.RoundSteps = 2, 2
	want, err := core.RunPopulation(c)
	if err != nil {
		return err
	}
	variants := []trainOpts{{}}
	if traced {
		tr := newTracer()
		tr.on.Store(true)
		variants = append(variants, trainOpts{tr: tr, traceEvery: 1})
	}
	for _, o := range variants {
		var got trainRun
		if err := runPopulation(c, o, 1, &got); err != nil {
			return err
		}
		for r, row := range want.RoundLosses {
			for k, l := range row {
				if math.Float64bits(got.roundLosses[r][k]) != math.Float64bits(l) {
					return fmt.Errorf("training loop (traced=%v) round %d trainer %d: loss %v, core.RunPopulation %v",
						o.tr != nil, r, k, got.roundLosses[r][k], l)
				}
			}
		}
		if math.Float64bits(got.finalBest[0]) != math.Float64bits(want.FinalBest) {
			return fmt.Errorf("training loop (traced=%v) val_loss_final %v, core.RunPopulation %v", o.tr != nil, got.finalBest[0], want.FinalBest)
		}
	}
	return nil
}

const (
	// setupReps is how many times each population is built to time
	// set-up; setup_s is the median over every build of the run.
	setupReps = 3
	// populations is how many populations one run trains, each from its
	// own seed derived from the run's, for a quarter of the run: one
	// initialisation's luck moves the final loss and the step time, so a
	// run reports over several.
	populations = 4
)

// runTrain measures one training workload: the loop-equivalence check,
// then populations trained in turn for an equal share of seconds (and at
// least the fixed schedule each). Traced, every other round runs with
// the wrappers installed and the rounds between give the untraced
// baseline for trace.overhead.
func runTrain(c core.QualityConfig, seconds float64, traced bool, name string, seed int64) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	c.Seed = seed * populations
	if err := trainCheck(c, traced); err != nil {
		out.check(false, "loop equivalence: %v", err)
	}
	o := trainOpts{seconds: seconds / populations}
	var tr *tracer
	if traced {
		tr = newTracer()
		tr.on.Store(true)
		o.tr, o.traceEvery = tr, 2
	}
	var run trainRun
	for j := int64(0); j < populations; j++ {
		c.Seed = seed*populations + j
		if err := runPopulation(c, o, setupReps, &run); err != nil {
			return nil, err
		}
	}
	out.attempted = int64(len(run.stepMs) + run.tourneys)
	perRound := float64(c.Trainers * c.RoundSteps * c.BatchSize)
	rates := func(traced bool) []float64 {
		var out []float64
		for i, s := range run.roundSec {
			if run.roundTrace[i] == traced {
				out = append(out, perRound/s)
			}
		}
		return out
	}
	m := out.metrics
	if !traced {
		p50, _ := percentile(run.stepMs, 0.5)
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		loss := 0.0
		for _, l := range run.finalBest {
			loss += l / float64(len(run.finalBest))
		}
		rate := median(rates(false))
		m["setup_s"] = median(run.setupSec)
		m["samples_per_s"] = rate
		m["latency_p50_ms"] = p50
		m["val_loss_final"] = loss
		m["peak_rss_mb"] = rss
		return out, nil
	}

	spans := tr.snapshot()
	writeSpans(spans, name, seed)
	kids := childrenOf(spans)
	steps := named(spans, "trainer.step")
	calls := named(spans, "cyclegan.train_step")
	reduces := named(spans, "comm.allreduce")
	if len(steps) == 0 || len(calls) != len(steps) {
		return nil, fmt.Errorf("traced %d steps but %d TrainStep calls", len(steps), len(calls))
	}
	flops := archOf(c.Model).FlopsPerSample()
	var computeMs []float64
	var workFlops, computeSec float64
	for _, i := range calls {
		self := selfTime(spans[i].interval(), kids[i])
		computeMs = append(computeMs, float64(self)/1e6)
		workFlops += flops * float64(spans[i].Work)
		computeSec += self.Seconds()
	}
	var fetchMs []float64
	var stepSec float64
	for _, i := range steps {
		fetchMs = append(fetchMs, float64(selfTime(spans[i].interval(), kids[i]))/1e6)
		stepSec += float64(spans[i].End-spans[i].Start) / 1e9
	}
	var reduceSec float64
	var moving, bytes int
	for _, i := range reduces {
		reduceSec += float64(spans[i].End-spans[i].Start) / 1e9
		if spans[i].Work > 0 {
			moving++
			bytes += spans[i].Work
		}
	}
	n := float64(len(steps))
	m["cyclegan.compute_ms.p50"] = median(computeMs)
	m["tensor.gflops_computed"] = workFlops / computeSec / 1e9
	m["comm.allreduce_ms.p50"] = median(durationsMs(spans, reduces))
	m["comm.allreduce_calls_per_step"] = float64(moving) / n
	m["comm.allreduce_bytes_per_step"] = float64(bytes) / n
	m["comm.allreduce_share"] = reduceSec / stepSec
	m["datastore.fetch_ms.p50"] = median(fetchMs)
	st := run.store
	if total := st.LocalHits + st.RemoteSamples + st.BackingReads; total > 0 {
		m["datastore.local_hit_ratio"] = float64(st.LocalHits) / float64(total)
	}
	m["datastore.remote_samples_per_step"] = float64(st.RemoteSamples) / n
	m["datastore.bytes_per_step"] = float64(st.BytesReceived) / n
	if run.tourneys > 0 {
		m["ltfb.tournament_ms.p50"] = median(durationsMs(spans, named(spans, "ltfb.tournament")))
		m["ltfb.adoption_ratio"] = float64(run.adoptions) / float64(run.tourneys)
		m["ltfb.exchange_bytes"] = float64(run.exchangeSize)
	}
	// Every step of the run is timed around trainer.Advance(1), traced
	// round or not; traced rounds alone are too few for a p99.
	m["trainer.step_ms.p50"] = median(run.stepMs)
	if p99, ok := percentile(run.stepMs, 0.99); ok {
		m["trainer.step_ms.p99"] = p99
	}
	m["trainer.evaluate_ms.p50"] = median(durationsMs(spans, named(spans, "trainer.evaluate")))
	m["runtime.alloc_bytes_per_step"] = float64(run.allocBytes) / float64(len(run.stepMs))
	m["runtime.gc_pause_ms"] = float64(run.gcPauseNs) / 1e6
	m["trace.overhead"] = median(rates(false)) / median(rates(true))

	// Each step's three Reduce calls must carry, phase by phase, one
	// float32 per parameter that phase updates: encoder+decoder, then the
	// discriminator, then forward+inverse. A one-rank trainer moves nothing.
	phaseBytes(out, spans, reduces, archOf(c.Model), c.RanksPerTrainer > 1)
	// perfmodel.Arch.TotalGradBytes is the volume the performance model
	// charges a step. It also charges the decoder to the generator phase,
	// which TrainStep does not update, so on a multi-rank trainer this
	// ratio reads below 1 until the model is corrected; it is reported, not
	// checked, because the model is not an output of the training run.
	if c.RanksPerTrainer > 1 {
		model := archOf(c.Model).TotalGradBytes()
		m["comm.allreduce_bytes_vs_perfmodel"] = m["comm.allreduce_bytes_per_step"] / model
		if m["comm.allreduce_bytes_per_step"] != model {
			fmt.Fprintf(os.Stderr, "perfbench: note: counted %.0f allreduce B/step, perfmodel.Arch.TotalGradBytes charges %.0f B\n",
				m["comm.allreduce_bytes_per_step"], model)
		}
	}
	return out, nil
}

// phaseBytes checks the bytes of every traced step's Reduce calls, in
// call order, against the parameter counts perfmodel.Arch.Params gives
// for the nets each TrainStep phase updates.
func phaseBytes(out *outcome, spans []span, reduces []int, a perfmodel.Arch, multiRank bool) {
	want := []int{0, 0, 0}
	if multiRank {
		e, d, f, i, ds := a.Params()
		want = []int{4 * (e + d), 4 * ds, 4 * (f + i)}
	}
	perStep := map[int][]int{}
	var parents []int
	for _, i := range reduces {
		p := spans[i].Parent
		if _, ok := perStep[p]; !ok {
			parents = append(parents, p)
		}
		perStep[p] = append(perStep[p], spans[i].Work)
	}
	out.check(len(parents) > 0, "no traced allreduce calls")
	for _, p := range parents {
		got := perStep[p]
		ok := len(got) == len(want)
		for k := 0; ok && k < len(want); k++ {
			ok = got[k] == want[k]
		}
		if !ok {
			out.check(false, "TrainStep allreduce bytes per phase %v, want %v (autoencoder, discriminator, generator)", got, want)
			return
		}
	}
}
