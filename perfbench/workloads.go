package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/nn"
	"github.com/niid-bench/niidbench/internal/partition"
	"github.com/niid-bench/niidbench/internal/rng"
	"github.com/niid-bench/niidbench/internal/simnet"
	"github.com/niid-bench/niidbench/internal/tensor"
)

// Transport kinds a workload runs over.
const (
	viaSim  = "sim"  // fl.NewSimulation + Run, function calls
	viaTCP  = "tcp"  // simnet.Listen/AcceptAndRun, loopback sockets
	viaPipe = "pipe" // simnet.RunLocal, in-process pipes
)

// workload is one named federation the benchmark runs. Every field is
// fixed; only the seed varies between runs.
type workload struct {
	name      string
	transport string
	dataset   string
	trainN    int
	testN     int
	parties   int
	strat     partition.Strategy
	cfg       fl.Config
	// seeds is how many federations, each on its own seed derived from
	// --seed, one run executes at least; the run then cycles through the
	// same seeds again until --seconds elapse. Accuracy metrics are medians
	// over these seeds, so one run's figures do not hinge on one draw.
	seeds int
}

// workloads are the benchmark's named workloads; BENCHMARK.json records
// why each was chosen. The rcv1 workloads train at LR 0.05: at the paper's
// 0.01 their accuracy barely leaves chance within a run, and at 0.1
// SCAFFOLD diverges to NaN on some seeds. tcp-silos splits its data iid:
// its two silos train in parallel, so a round lasts as long as the larger
// silo's training, and a label-Dirichlet split sizes that silo anywhere
// from 200 to 394 of the 400 samples depending on the seed, which moves
// round time by up to 60% from seed to seed.
var workloads = []workload{
	{
		name: "paper-cnn", transport: viaSim, dataset: "cifar10",
		trainN: 1000, testN: 300, parties: 10,
		strat: partition.Strategy{Kind: partition.LabelDirichlet, Beta: 0.5},
		cfg: fl.Config{Algorithm: fl.FedAvg, Rounds: 20, LocalEpochs: 3, BatchSize: 32,
			LR: 0.01, Momentum: 0.9, EvalEvery: 1},
		seeds: 4,
	},
	{
		name: "tcp-silos", transport: viaTCP, dataset: "rcv1",
		trainN: 400, testN: 600, parties: 2,
		strat: partition.Strategy{Kind: partition.Homogeneous},
		cfg: fl.Config{Algorithm: fl.FedAvg, Rounds: 200, LocalEpochs: 1, BatchSize: 32,
			LR: 0.05, Momentum: 0.9, EvalEvery: 1, ChunkSize: 65536, Codec: fl.CodecF64},
		seeds: 8,
	},
	{
		name: "pipe-fleet-q", transport: viaPipe, dataset: "rcv1",
		trainN: 4800, testN: 600, parties: 48,
		strat: partition.Strategy{Kind: partition.LabelQuantity, K: 1},
		cfg: fl.Config{Algorithm: fl.Scaffold, Rounds: 40, LocalEpochs: 1, BatchSize: 32,
			LR: 0.05, Momentum: 0.9, EvalEvery: 1, ChunkSize: 65536, Codec: fl.CodecInt8,
			DType: tensor.Float32},
		seeds: 12,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// The default seed and the held-out seed both have their final_acc pinned
// in reference.json. Tune on the default; confirm a gain on the held-out.
const (
	defaultSeed = 1
	heldOutSeed = 2
)

// repSeed is the seed of a run's r-th federation: each --seed owns the
// block [seed*k, seed*k+k), so runs with different --seed share no
// federation.
func (w workload) repSeed(seed uint64, r int) uint64 {
	return seed*uint64(w.seeds) + uint64(r%w.seeds)
}

// fedSeed maps a federation seed to fl.Config.Seed; 0 would otherwise
// alias 1 inside fl.Config.Normalize and data.Load.
func fedSeed(seed uint64) uint64 { return seed + 1 }

// inputs is a workload's generated federation input.
type inputs struct {
	cfg    fl.Config
	spec   nn.ModelSpec
	locals []*data.Dataset
	test   *data.Dataset
}

// setupTimes splits a federation's set-up into its layers.
type setupTimes struct {
	load, split, build time.Duration
}

func (s setupTimes) total() time.Duration { return s.load + s.split + s.build }

// makeInputs generates the dataset and partition exactly as the fedserver
// and fedparty binaries do for identical flags.
func (w workload) makeInputs(seed uint64, st *setupTimes) (*inputs, error) {
	s := fedSeed(seed)
	t0 := time.Now()
	train, test, err := data.Load(w.dataset, data.Config{TrainN: w.trainN, TestN: w.testN, Seed: s})
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	_, locals, err := w.strat.Split(train, w.parties, rng.New(s+17))
	if err != nil {
		return nil, err
	}
	st.load, st.split = t1.Sub(t0), time.Since(t1)
	spec, err := data.Model(w.dataset)
	if err != nil {
		return nil, err
	}
	cfg := w.cfg
	cfg.Seed = s
	if cfg, err = cfg.Normalize(); err != nil {
		return nil, err
	}
	return &inputs{cfg: cfg, spec: spec, locals: locals, test: test}, nil
}

// partySeed is the per-party training seed fedparty and RunLocal use.
func partySeed(cfg fl.Config, i int) uint64 { return cfg.Seed + uint64(i)*7919 + 13 }

// samplesPerRound counts the local training samples one full-participation
// round processes.
func (in *inputs) samplesPerRound() int64 {
	var n int64
	for _, d := range in.locals {
		n += int64(d.Len())
	}
	return n * int64(in.cfg.LocalEpochs)
}

// repResult is one complete federation's outcome.
type repResult struct {
	setup setupTimes
	// wall runs from round 0's start to the Result.
	wall time.Duration
	res  *fl.Result
	// samplesPerRound and rounds outlive in, which release drops.
	samplesPerRound int64
	rounds          int
	in              *inputs
}

// release drops the federation's inputs and final state once its figures
// are taken, so a run's later federations do not inflate its peak memory.
func (rr *repResult) release() {
	rr.in = nil
	rr.res.FinalState = nil
}

// runRep generates the inputs and runs one whole federation untraced.
func (w workload) runRep(seed uint64) (*repResult, error) {
	rr := &repResult{}
	in, err := w.makeInputs(seed, &rr.setup)
	if err != nil {
		return nil, err
	}
	rr.in, rr.samplesPerRound, rr.rounds = in, in.samplesPerRound(), in.cfg.Rounds
	switch w.transport {
	case viaSim:
		t0 := time.Now()
		sim, err := fl.NewSimulation(in.cfg, in.spec, in.locals, in.test)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		rr.setup.build = t1.Sub(t0)
		if rr.res, err = sim.Run(); err != nil {
			return nil, err
		}
		rr.wall = time.Since(t1)
	case viaTCP:
		var firstRecv atomic.Int64
		wrap := func(c simnet.Conn) simnet.Conn { return &firstRecvConn{inner: c, at: &firstRecv} }
		t0 := time.Now()
		res, err := runTCP(in, wrap)
		if err != nil {
			return nil, err
		}
		end := time.Now()
		admitted := time.Unix(0, firstRecv.Load())
		rr.setup.build = admitted.Sub(t0)
		rr.wall = end.Sub(admitted)
		rr.res = res
	case viaPipe:
		t0 := time.Now()
		res, err := simnet.RunLocal(in.cfg, in.spec, in.locals, in.test)
		if err != nil {
			return nil, err
		}
		rr.wall = time.Since(t0)
		rr.res = res
	}
	return rr, nil
}

// runTCP runs a federation over loopback TCP: the server through
// simnet.Listen/AcceptAndRun, each party through simnet.ServeParty on a
// socket this function dials (what simnet.DialParty does), with wrap
// applied to every party-side conn.
func runTCP(in *inputs, wrap func(simnet.Conn) simnet.Conn) (*fl.Result, error) {
	ln, err := simnet.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		sockets   []net.Conn
		partyErrs = make([]error, len(in.locals))
	)
	for i, ds := range in.locals {
		wg.Add(1)
		go func(i int, ds *data.Dataset) {
			defer wg.Done()
			c, err := net.Dial("tcp", ln.Addr())
			if err != nil {
				partyErrs[i] = err
				return
			}
			defer c.Close()
			mu.Lock()
			sockets = append(sockets, c)
			mu.Unlock()
			partyErrs[i] = simnet.ServeParty(wrap(simnet.NewTCPConn(c)), i, ds, in.spec, in.cfg, partySeed(in.cfg, i), "")
		}(i, ds)
	}
	res, err := ln.AcceptAndRun(len(in.locals), in.cfg, in.spec, in.test)
	if err != nil {
		// Unblock parties still waiting on a server that gave up.
		_ = ln.Close()
		mu.Lock()
		for _, c := range sockets {
			_ = c.Close()
		}
		mu.Unlock()
	}
	wg.Wait()
	if err != nil {
		return nil, err
	}
	for i, perr := range partyErrs {
		if perr != nil {
			return nil, fmt.Errorf("party %d: %w", i, perr)
		}
	}
	return res, nil
}

// firstRecvConn records when any party first receives a frame: the end of
// admission, when the server has registered every party and starts round 0.
type firstRecvConn struct {
	inner simnet.Conn
	at    *atomic.Int64
}

func (c *firstRecvConn) Send(b []byte) error { return c.inner.Send(b) }

func (c *firstRecvConn) Recv() ([]byte, error) {
	b, err := c.inner.Recv()
	if err == nil && c.at.Load() == 0 {
		c.at.CompareAndSwap(0, time.Now().UnixNano())
	}
	return b, err
}

func (c *firstRecvConn) Close() error { return c.inner.Close() }

// SetReadDeadline and SetRecvLimit forward the optional simnet conn
// controls, so wrapping leaves party behaviour unchanged.
func (c *firstRecvConn) SetReadDeadline(t time.Time) error {
	if d, ok := c.inner.(interface{ SetReadDeadline(time.Time) error }); ok {
		return d.SetReadDeadline(t)
	}
	return nil
}

func (c *firstRecvConn) SetRecvLimit(n uint32) {
	if l, ok := c.inner.(interface{ SetRecvLimit(uint32) }); ok {
		l.SetRecvLimit(n)
	}
}
