package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/nn"
	"github.com/niid-bench/niidbench/internal/rng"
	"github.com/niid-bench/niidbench/internal/simnet"
	"github.com/niid-bench/niidbench/internal/tensor"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the layer boundary. Spans of one federation share Fed; Parent is the
// ID of the span whose work caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Fed    int    `json:"fed"`
	Name   string `json:"name"`
	Party  int    `json:"party"`
	Round  int    `json:"round"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory; write stores them when the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span ID, for a parent whose children end before it does.
func (t *tracer) id() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records a finished span under a reserved (or zero, for a fresh) ID.
func (t *tracer) add(s span, start, end time.Time) span {
	s.Start, s.End = start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	if s.ID == 0 {
		t.next++
		s.ID = t.next
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// layers accumulates the per-layer figures of a traced run.
type layers struct {
	clientTrainMS []float64 // one per party update
	straggler     []float64 // max over median client train, per round
	trainWaitMS   []float64 // per round
	foldMS        []float64 // per round
	overheadMS    []float64 // per round
	evalMS        []float64 // per evaluation
	roundMS       []float64 // per round, traced
	recvWaitMS    []float64 // per party per round
	sendMS        []float64 // per frame sent
	framesUp      float64   // per round
	framesDown    float64
	bytesUp       float64
	bytesDown     float64
	coverage      []float64 // share of traced round time the phases account for
	tracedWall    []float64 // seconds, traced federation
	untracedWall  []float64 // seconds, same seed untraced
}

// traced runs untraced and traced federations in pairs on the same seeds
// until the budget is spent, then probes each layer on the workload's own
// shapes, and reports the per-layer metrics.
func traced(w workload, ref reference, seed uint64, budget time.Duration, rep *report, chk *checks) (*tracer, int64, int64, error) {
	tr := newTracer()
	var (
		L                 layers
		reps              []*repResult
		rt                runtimeSample
		attempted, failed int64
	)
	start := time.Now()
	for r := 0; r == 0 || time.Since(start) < budget; r++ {
		fs := w.repSeed(seed, r)
		before := readRuntime()
		rr, err := w.runRep(fs)
		if err != nil {
			return tr, attempted, failed, fmt.Errorf("untraced federation (seed %d): %w", fs, err)
		}
		after := readRuntime()
		rt.allocBytes += after.allocBytes - before.allocBytes
		rt.gcCycles += after.gcCycles - before.gcCycles
		rt.gcCPU += after.gcCPU - before.gcCPU
		rt.totalCPU += after.totalCPU - before.totalCPU
		reps = append(reps, rr)
		a, f := checkRep(r, rr, ref, chk)
		attempted, failed = attempted+a, failed+f
		L.untracedWall = append(L.untracedWall, rr.wall.Seconds())

		switch w.transport {
		case viaSim:
			err = traceSim(tr, r, w, fs, rr, &L, chk)
		case viaTCP:
			err = traceTCP(tr, r, w, fs, rr, &L, chk)
		case viaPipe:
			err = tracePipe(tr, r, w, fs, rr, &L, chk)
		}
		if err != nil {
			return tr, attempted, failed, fmt.Errorf("traced federation (seed %d): %w", fs, err)
		}
		if r > 0 {
			rr.release()
		}
	}
	p := probeLayers(w, reps[0])
	if len(L.sendMS) == 0 {
		// The in-process simulation has no wire; time the hop its update
		// frame would take through a simnet pipe.
		hop := pipeHop(upFrame(reps[0].in, reps[0].in.cfg.Codec))
		L.sendMS, L.recvWaitMS = []float64{hop.sendMS}, []float64{hop.recvMS}
	}

	rounds := 0
	for _, rr := range reps {
		rounds += len(rr.res.Curve)
	}
	roundP50 := median(L.roundMS)
	conc := float64(min(reps[0].in.cfg.Parallelism, w.parties))
	steps := stepsPerRound(reps[0].in)
	framesPerRound := L.framesUp + L.framesDown

	rep.add("fl.client.train_ms.p50", "ms", median(L.clientTrainMS))
	rep.add("fl.client.train_ms.max", "ms", maxOf(L.clientTrainMS))
	rep.add("fl.client.straggler_ratio", "ratio", median(L.straggler))
	rep.add("fl.round.train_wait_ms", "ms", median(L.trainWaitMS))
	rep.add("fl.server.fold_ms", "ms", median(L.foldMS))
	rep.add("fl.engine.overhead_ms", "ms", median(L.overheadMS))
	rep.add("fl.eval_ms", "ms", median(L.evalMS))
	rep.add("fl.round_ms.traced_p50", "ms", roundP50)
	rep.add("simnet.frames_per_round.up", "count", L.framesUp)
	rep.add("simnet.frames_per_round.down", "count", L.framesDown)
	rep.add("simnet.bytes_per_round.up", "B", L.bytesUp)
	rep.add("simnet.bytes_per_round.down", "B", L.bytesDown)
	rep.add("simnet.party.recv_wait_ms", "ms", median(L.recvWaitMS))
	rep.add("simnet.party.send_ms", "ms", median(L.sendMS))
	rep.add("simnet.codec.encode_ms", "ms", p.encodeMS)
	rep.add("simnet.codec.decode_ms", "ms", p.decodeMS)
	rep.add("nn.fwd_bwd_ms", "ms", p.fwdBwdMS)
	rep.add("nn.fwd_ms", "ms", p.fwdMS)
	for _, g := range p.gemm {
		rep.add("tensor.gemm_gflops."+g.shape.name(), "GFLOP/s", g.gflops)
	}
	rep.add("tensor.im2col_ms", "ms", p.im2colMS)
	// Each probe's share of the traced round: its time per call, times
	// the calls one round makes, over the round's wall time across the
	// concurrently training parties.
	share := func(perCall, calls float64) float64 { return perCall * calls / (roundP50 * conc) }
	rep.add("nn.fwd_bwd.round_share", "frac", share(p.fwdBwdMS, steps))
	rep.add("tensor.gemm_fwd.round_share", "frac", share(p.ownGemmMS(w), steps))
	im2colCalls := 0.0
	if reps[0].in.spec.Kind == nn.KindCNN {
		im2colCalls = steps
	}
	rep.add("tensor.im2col.round_share", "frac", share(p.im2colMS, im2colCalls))
	// The broadcast is encoded once and decoded by every party; every
	// update is encoded and decoded once.
	codecMS := p.encodeMS*(L.framesUp+min(L.framesDown, 1)) + p.decodeMS*framesPerRound
	rep.add("simnet.codec.round_share", "frac", codecMS/roundP50)
	rep.add("fl.eval.round_share", "frac", median(L.evalMS)/roundP50)
	rep.add("trace.phase_coverage", "frac", median(L.coverage))
	rep.add("trace.overhead_frac", "frac", median(L.tracedWall)/median(L.untracedWall)-1)
	rep.add("runtime.alloc_mb_per_round", "MB", rt.allocBytes/1e6/float64(rounds))
	rep.add("runtime.gc_cycles", "count/fed", rt.gcCycles/float64(len(reps)))
	rep.add("runtime.gc_cpu_frac", "frac", rt.gcCPU/rt.totalCPU)
	var load, split, build []float64
	for _, rr := range reps {
		load = append(load, rr.setup.load.Seconds())
		split = append(split, rr.setup.split.Seconds())
		build = append(build, rr.setup.build.Seconds())
	}
	if w.transport == viaPipe {
		build = []float64{buildSeconds(reps[0].in)}
	}
	rep.add("data.load_s", "s", median(load))
	rep.add("partition.split_s", "s", median(split))
	rep.add("fl.build_s", "s", median(build))
	fmt.Printf("workload %s traced: %d federation pairs, %d traced rounds, %d spans\n", w.name, len(reps), len(L.roundMS), len(tr.spans))
	return tr, attempted, failed, nil
}

// checkRep applies the per-federation correctness checks and returns the
// party-updates it attempted and dropped.
func checkRep(i int, rr *repResult, ref reference, chk *checks) (int64, int64) {
	var attempted, failed int64
	res := rr.res
	for _, m := range res.Curve {
		attempted += int64(len(m.Sampled))
		failed += int64(len(m.Dropped))
		if m.Quorum != nil {
			chk.failf("federation %d round %d was skipped for quorum", i, m.Round)
		}
	}
	if len(res.Curve) != rr.rounds {
		chk.failf("federation %d ran %d rounds, want %d", i, len(res.Curve), rr.rounds)
	}
	if res.CommBytesPerRound != ref.CommBytesPerRound {
		chk.failf("federation %d moved %.0f B per round, want %.0f", i, res.CommBytesPerRound, ref.CommBytesPerRound)
	}
	if res.FinalAccuracy < ref.Floor {
		chk.failf("federation %d ended at accuracy %.4f, below the floor %.4f", i, res.FinalAccuracy, ref.Floor)
	}
	return attempted, failed
}

// buildSeconds replays RunLocal's federation construction, which happens
// inside RunLocal out of the benchmark's reach: one fl.Client per party
// and the server's initial model. (fl.build_s is NewSimulation on
// paper-cnn and party admission over TCP on tcp-silos.)
func buildSeconds(in *inputs) float64 {
	spec := in.cfg.ResolveSpec(in.spec)
	t0 := time.Now()
	for i, ds := range in.locals {
		_ = fl.NewClient(i, ds, spec, rng.New(partySeed(in.cfg, i)))
	}
	m := nn.Build(spec, rng.New(in.cfg.Seed))
	_ = fl.NewServer(in.cfg, m.State(), m.ParamCount(), len(in.locals))
	return time.Since(t0).Seconds()
}

// stepsPerRound counts one round's training steps in full-batch
// equivalents, the unit the batch-size probes are timed in.
func stepsPerRound(in *inputs) float64 {
	return float64(in.samplesPerRound()) / float64(in.cfg.BatchSize)
}

func maxOf(v []float64) float64 {
	m := math.Inf(-1)
	for _, x := range v {
		m = math.Max(m, x)
	}
	return m
}

// roundClients appends a round's client train times and its straggler
// ratio.
func (L *layers) roundClients(trainMS []float64) {
	L.clientTrainMS = append(L.clientTrainMS, trainMS...)
	L.straggler = append(L.straggler, maxOf(trainMS)/median(trainMS))
}

// traceSim rebuilds the in-process federation from public parts with the
// same RNG splits as fl.NewSimulation and drives Engine.RunRound through a
// timing transport. Its final state must equal the untraced run's bitwise.
func traceSim(tr *tracer, fed int, w workload, seed uint64, untraced *repResult, L *layers, chk *checks) error {
	var st setupTimes
	in, err := w.makeInputs(seed, &st)
	if err != nil {
		return err
	}
	cfg := in.cfg
	spec := cfg.ResolveSpec(in.spec)
	root := rng.New(cfg.Seed)
	clients := make([]*fl.Client, len(in.locals))
	for i, ds := range in.locals {
		clients[i] = fl.NewClient(i, ds, spec, root.Split())
	}
	initModel := nn.Build(spec, root.Split())
	eval := fl.NewEvaluator(spec, in.test)
	server := fl.NewServer(cfg, initModel.State(), initModel.ParamCount(), len(clients))
	engine, err := fl.NewEngine(cfg, server, eval, len(clients), root.Split(), nil)
	if err != nil {
		return err
	}
	tt := &timedSim{tr: tr, fed: fed, cfg: cfg, clients: clients}
	t0 := time.Now()
	var phases time.Duration
	for t := 0; t < cfg.Rounds; t++ {
		tt.round, tt.roundSpan = t, tr.id()
		tt.trainSpan, tt.foldTime = tr.id(), 0
		rs := time.Now()
		m, err := engine.RunRound(tt, t)
		re := time.Now()
		if err != nil {
			return err
		}
		round := tr.add(span{ID: tt.roundSpan, Fed: fed, Name: "fl.engine.round", Party: -1, Round: t}, rs, re)
		train := tt.trainDone
		L.roundMS = append(L.roundMS, round.ms())
		L.foldMS = append(L.foldMS, ms(tt.foldTime))
		L.trainWaitMS = append(L.trainWaitMS, train.ms()-ms(tt.foldTime))
		L.overheadMS = append(L.overheadMS, round.ms()-train.ms())
		L.roundClients(tt.clientMS)
		tt.clientMS = tt.clientMS[:0]
		if m.Round != t {
			chk.failf("traced round %d reported round %d", t, m.Round)
		}
		if (t+1)%cfg.EvalEvery == 0 || t == cfg.Rounds-1 {
			es := time.Now()
			_ = eval.Accuracy(server.State())
			e := tr.add(span{Fed: fed, Name: "fl.eval", Party: -1, Round: t}, es, time.Now())
			L.evalMS = append(L.evalMS, e.ms())
			phases += time.Duration(e.End - e.Start)
		}
		phases += re.Sub(rs)
	}
	wall := time.Since(t0)
	L.tracedWall = append(L.tracedWall, wall.Seconds())
	L.coverage = append(L.coverage, phases.Seconds()/wall.Seconds())
	if !sameBits(server.State(), untraced.res.FinalState) {
		chk.failf("traced paper-cnn federation %d (seed %d) ended in a different final state than the untraced Simulation.Run", fed, seed)
	}
	return nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// timedSim is fl.Simulation's whole-update Transport with a span around
// every LocalTrain and every delivery into the engine's sink.
type timedSim struct {
	tr        *tracer
	fed       int
	cfg       fl.Config
	clients   []*fl.Client
	round     int
	roundSpan int64
	trainSpan int64
	trainDone span
	foldTime  time.Duration
	clientMS  []float64
}

func (s *timedSim) PartyMeta(id int) fl.UpdateMeta {
	n := s.clients[id].Data.Len()
	return fl.UpdateMeta{N: n, Tau: fl.PredictTau(s.cfg, n)}
}

func (s *timedSim) TrainRound(round int, sampled []int, global, control []float64, sink *fl.RoundSink) error {
	start := time.Now()
	conc := min(s.cfg.Parallelism, len(sampled))
	budget := tensor.Compute{Workers: s.cfg.Parallelism}.Split(conc)
	type done struct {
		u  fl.Update
		ms float64
	}
	slots := make([]chan done, len(sampled))
	for j := range slots {
		slots[j] = make(chan done, 1)
	}
	sem := make(chan struct{}, s.cfg.Parallelism)
	for j, id := range sampled {
		go func(j, id int) {
			sem <- struct{}{}
			defer func() { <-sem }()
			cl := s.clients[id]
			cl.SetComputeBudget(budget)
			ts := time.Now()
			u := cl.LocalTrain(global, control, s.cfg)
			sp := s.tr.add(span{Parent: s.trainSpan, Fed: s.fed, Name: "fl.client.train", Party: id, Round: round}, ts, time.Now())
			slots[j] <- done{u, sp.ms()}
		}(j, id)
	}
	var err error
	for j := range slots {
		d := <-slots[j]
		s.clientMS = append(s.clientMS, d.ms)
		if err != nil {
			continue // drain the stragglers; the first error is returned
		}
		ds := time.Now()
		err = sink.Deliver(d.u)
		de := time.Now()
		s.tr.add(span{Parent: s.trainSpan, Fed: s.fed, Name: "fl.server.fold", Party: sampled[j], Round: round}, ds, de)
		s.foldTime += de.Sub(ds)
	}
	s.trainDone = s.tr.add(span{ID: s.trainSpan, Parent: s.roundSpan, Fed: s.fed, Name: "fl.transport.train_round", Party: -1, Round: round}, start, time.Now())
	return err
}

// connEvent is one Send or Recv on a party's socket.
type connEvent struct {
	send       bool
	start, end time.Time
	n          int
}

// timingConn wraps a party's socket, recording every frame; it forwards
// SetReadDeadline and SetRecvLimit so the party behaves as unwrapped.
type timingConn struct {
	firstRecvConn
	mu     sync.Mutex
	events []connEvent
}

func (c *timingConn) Send(b []byte) error {
	s := time.Now()
	err := c.inner.Send(b)
	c.record(connEvent{send: true, start: s, end: time.Now(), n: len(b)})
	return err
}

func (c *timingConn) Recv() ([]byte, error) {
	s := time.Now()
	b, err := c.firstRecvConn.Recv()
	if err == nil {
		c.record(connEvent{start: s, end: time.Now(), n: len(b)})
	}
	return b, err
}

func (c *timingConn) record(e connEvent) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// traceTCP reruns the loopback federation with every party socket wrapped
// in a timingConn. Server-side work is out of reach from the sockets, so
// the fold and evaluation are replayed through fl.Server and fl.Evaluator
// on the run's real updates and final state.
func traceTCP(tr *tracer, fed int, w workload, seed uint64, untraced *repResult, L *layers, chk *checks) error {
	var st setupTimes
	in, err := w.makeInputs(seed, &st)
	if err != nil {
		return err
	}
	var first atomic.Int64
	var mu sync.Mutex
	var conns []*timingConn
	wrap := func(c simnet.Conn) simnet.Conn {
		tc := &timingConn{firstRecvConn: firstRecvConn{inner: c, at: &first}}
		mu.Lock()
		conns = append(conns, tc)
		mu.Unlock()
		return tc
	}
	res, err := runTCP(in, wrap)
	if err != nil {
		return err
	}
	L.tracedWall = append(L.tracedWall, time.Since(time.Unix(0, first.Load())).Seconds())
	if !sameBits(res.FinalState, untraced.res.FinalState) {
		chk.failf("traced tcp-silos federation %d (seed %d) ended in a different final state than the untraced run", fed, seed)
	}
	rounds := len(res.Curve)
	type partyRound struct{ recvEnd, sendStart, sendEnd time.Time }
	per := make([][]partyRound, len(conns))
	var upFrames, downFrames, upBytes, downBytes int
	for p, c := range conns {
		// A party's first send is its hello and its last receive the
		// shutdown; everything between is round traffic.
		var sends, recvs []connEvent
		for _, e := range c.events {
			if e.send {
				sends = append(sends, e)
			} else {
				recvs = append(recvs, e)
			}
		}
		if len(sends) < 1 || len(recvs) < 1 {
			chk.failf("party %d exchanged no round frames", p)
			continue
		}
		sends, recvs = sends[1:], recvs[:len(recvs)-1]
		if len(sends)%rounds != 0 || len(recvs)%rounds != 0 {
			chk.failf("party %d: %d up and %d down frames do not divide into %d rounds", p, len(sends), len(recvs), rounds)
			continue
		}
		up, down := len(sends)/rounds, len(recvs)/rounds
		upFrames += len(sends)
		downFrames += len(recvs)
		for t := 0; t < rounds; t++ {
			rg, sg := recvs[t*down:(t+1)*down], sends[t*up:(t+1)*up]
			for _, e := range rg {
				downBytes += e.n
			}
			for _, e := range sg {
				upBytes += e.n
				L.sendMS = append(L.sendMS, ms(e.end.Sub(e.start)))
				tr.add(span{Fed: fed, Name: "simnet.party.send", Party: p, Round: t}, e.start, e.end)
			}
			L.recvWaitMS = append(L.recvWaitMS, ms(rg[0].end.Sub(rg[0].start)))
			tr.add(span{Fed: fed, Name: "simnet.party.recv", Party: p, Round: t}, rg[0].start, rg[down-1].end)
			pr := partyRound{recvEnd: rg[down-1].end, sendStart: sg[0].start, sendEnd: sg[up-1].end}
			tr.add(span{Fed: fed, Name: "fl.client.train", Party: p, Round: t}, pr.recvEnd, pr.sendStart)
			per[p] = append(per[p], pr)
		}
	}
	L.framesUp = float64(upFrames) / float64(rounds)
	L.framesDown = float64(downFrames) / float64(rounds)
	L.bytesUp = float64(upBytes) / float64(rounds)
	L.bytesDown = float64(downBytes) / float64(rounds)
	if got := L.bytesUp + L.bytesDown; got != res.CommBytesPerRound {
		chk.failf("party sockets saw %.0f B per round, the server measured %.0f", got, res.CommBytesPerRound)
	}

	fold, evalMS := replayServer(in, res.FinalState, nil)
	for t := 0; t < rounds; t++ {
		var train []float64
		var firstRecv, lastSend time.Time
		for p := range per {
			if t >= len(per[p]) {
				continue
			}
			pr := per[p][t]
			train = append(train, ms(pr.sendStart.Sub(pr.recvEnd)))
			if firstRecv.IsZero() || pr.recvEnd.Before(firstRecv) {
				firstRecv = pr.recvEnd
			}
			if pr.sendEnd.After(lastSend) {
				lastSend = pr.sendEnd
			}
		}
		if len(train) == 0 {
			continue
		}
		L.roundClients(train)
		round := ms(res.Curve[t].Duration)
		wait := ms(lastSend.Sub(firstRecv))
		L.roundMS = append(L.roundMS, round)
		L.trainWaitMS = append(L.trainWaitMS, wait)
		L.foldMS = append(L.foldMS, fold)
		L.overheadMS = append(L.overheadMS, round-wait-fold)
		L.coverage = append(L.coverage, (wait+fold+evalMS)/(round+evalMS))
	}
	L.evalMS = append(L.evalMS, evalMS)
	return nil
}

// replayServer trains every party once from state and folds the updates
// through a fresh fl.Server as one round would, returning the median fold
// and evaluation times in ms. train, when non-nil, receives each party's
// LocalTrain time.
func replayServer(in *inputs, state []float64, train func(i int, ms float64)) (foldMS, evalMS float64) {
	cfg := in.cfg
	spec := cfg.ResolveSpec(in.spec)
	m := nn.Build(spec, rng.New(cfg.Seed))
	paramLen := m.ParamCount()
	var serverC []float64
	if cfg.Algorithm == fl.Scaffold {
		serverC = make([]float64, paramLen)
	}
	budget := tensor.Compute{Workers: cfg.Parallelism}.Split(len(in.locals))
	updates := make([]fl.Update, len(in.locals))
	metas := make([]fl.UpdateMeta, len(in.locals))
	for i, ds := range in.locals {
		cl := fl.NewClient(i, ds, spec, rng.New(partySeed(cfg, i)))
		cl.SetComputeBudget(budget)
		ts := time.Now()
		updates[i] = cl.LocalTrain(state, serverC, cfg)
		if train != nil {
			train(i, ms(time.Since(ts)))
		}
		metas[i] = fl.UpdateMeta{N: ds.Len(), Tau: fl.PredictTau(cfg, ds.Len())}
	}
	var folds []float64
	for k := 0; k < 5; k++ {
		srv := fl.NewServer(cfg, state, paramLen, len(in.locals))
		ts := time.Now()
		if err := srv.BeginRound(metas); err != nil {
			return math.NaN(), math.NaN()
		}
		for _, u := range updates {
			if err := srv.AddUpdate(u); err != nil {
				return math.NaN(), math.NaN()
			}
		}
		if err := srv.FinishRound(); err != nil {
			return math.NaN(), math.NaN()
		}
		folds = append(folds, ms(time.Since(ts)))
	}
	ev := fl.NewEvaluator(spec, in.test)
	ev.SetCompute(tensor.Compute{Workers: cfg.Parallelism})
	var evals []float64
	for k := 0; k < 5; k++ {
		ts := time.Now()
		_ = ev.Accuracy(state)
		evals = append(evals, ms(time.Since(ts)))
	}
	return median(folds), median(evals)
}

// tracePipe covers RunLocal, which owns its pipes: it reruns the
// federation for its round times, then replays each layer on the run's
// real inputs — LocalTrain for every party, the fold through fl.Server,
// evaluation, and the int8 codec and a pipe hop on the party's update
// frame — and reports what share of the measured round the replays
// account for.
func tracePipe(tr *tracer, fed int, w workload, seed uint64, untraced *repResult, L *layers, chk *checks) error {
	var st setupTimes
	in, err := w.makeInputs(seed, &st)
	if err != nil {
		return err
	}
	t0 := time.Now()
	res, err := simnet.RunLocal(in.cfg, in.spec, in.locals, in.test)
	if err != nil {
		return err
	}
	L.tracedWall = append(L.tracedWall, time.Since(t0).Seconds())
	if !sameBits(res.FinalState, untraced.res.FinalState) {
		chk.failf("rerun pipe-fleet-q federation %d (seed %d) ended in a different final state", fed, seed)
	}
	var rounds []float64
	for _, m := range res.Curve {
		rounds = append(rounds, ms(m.Duration))
	}
	L.roundMS = append(L.roundMS, rounds...)
	round := median(rounds)

	var train []float64
	rs := time.Now()
	fold, evalMS := replayServer(in, res.FinalState, func(i int, d float64) {
		train = append(train, d)
		end := time.Now()
		tr.add(span{Fed: fed, Name: "fl.client.train.replay", Party: i, Round: -1}, end.Add(-time.Duration(d*1e6)), end)
	})
	tr.add(span{Fed: fed, Name: "replay.server", Party: -1, Round: -1}, rs, time.Now())
	L.roundClients(train)
	conc := float64(min(in.cfg.Parallelism, len(in.locals)))
	var sum float64
	for _, d := range train {
		sum += d
	}
	wait := sum / conc
	L.trainWaitMS = append(L.trainWaitMS, wait)
	L.foldMS = append(L.foldMS, fold)
	L.evalMS = append(L.evalMS, evalMS)
	L.overheadMS = append(L.overheadMS, round-wait-fold)

	hop := pipeHop(upFrame(in, w.cfg.Codec))
	L.sendMS = append(L.sendMS, hop.sendMS)
	L.recvWaitMS = append(L.recvWaitMS, hop.recvMS)
	up, down := frameBytes(in, w.cfg.Codec)
	n := float64(len(in.locals))
	L.framesUp, L.framesDown = n, n
	L.bytesUp, L.bytesDown = n*float64(up), n*float64(down)
	if fed == 0 {
		fmt.Printf("pipe frames: %d B up + %d B down per party, %.0f B per round; RunLocal measured %.0f B per round\n",
			up, down, L.bytesUp+L.bytesDown, res.CommBytesPerRound)
	}
	codec := codecProbe(in, w.cfg.Codec)
	codecMS := codec.encodeMS*(n+1) + codec.decodeMS*2*n
	L.coverage = append(L.coverage, (wait+fold+codecMS+evalMS)/(round+evalMS))
	return nil
}
