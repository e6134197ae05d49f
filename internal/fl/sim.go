package fl

import (
	"fmt"
	"sync"
	"time"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/nn"
	"github.com/niid-bench/niidbench/internal/rng"
	"github.com/niid-bench/niidbench/internal/tensor"
)

// RoundMetrics records what happened in one communication round.
type RoundMetrics struct {
	Round        int
	TestAccuracy float64 // NaN-free: -1 when the round was not evaluated
	TrainLoss    float64 // mean of the surviving parties' final-epoch losses
	CommBytes    int64   // total bytes moved (server->parties + parties->server)
	Duration     time.Duration
	Sampled      []int // IDs of the sampled parties
	// Dropped lists sampled parties whose update was abandoned mid-round
	// (malformed chunk stream or transport failure); the aggregation was
	// renormalized to the survivors. Nil on clean rounds.
	Dropped []int
	// Quorum records that this round was skipped and retried because the
	// live party set had shrunk below Config.MinParties; Attempts counts
	// the skipped attempts before the round finally ran. Nil when the
	// round ran at its first attempt.
	Quorum *QuorumError
}

// Result summarizes a federated run.
type Result struct {
	Config        Config
	FinalAccuracy float64
	BestAccuracy  float64
	Curve         []RoundMetrics
	ParamCount    int
	StateCount    int
	// CommBytesPerRound is the average communication volume per round.
	CommBytesPerRound float64
	TotalCommBytes    int64
	// ComputeTime is the wall-clock time spent in local training and
	// aggregation (excludes evaluation).
	ComputeTime time.Duration
	// FinalState is the final global model state (parameters then
	// buffers), suitable for SaveStateFile.
	FinalState []float64
	// Async summarizes the buffered-async run (nil for synchronous
	// rounds): fold count and staleness distribution.
	Async *AsyncStats
}

// Simulation drives a full federated run over in-process parties. It is
// the function-call Transport over the shared round Engine; the simnet
// package provides the message-passing one.
//
// Multiple Simulations may run concurrently in one process: every client
// model carries its own kernel compute budget, so concurrent runs never
// interfere with each other's parallelism (or results — the budgets change
// scheduling only, never arithmetic).
type Simulation struct {
	Cfg     Config
	Spec    nn.ModelSpec
	Clients []*Client
	Test    *data.Dataset

	server *Server
	engine *Engine
	eval   *Evaluator
}

// NewSimulation wires up a federation: one client per local dataset, a
// server initialized from a fresh model, and an evaluator on the test set.
func NewSimulation(cfg Config, spec nn.ModelSpec, locals []*data.Dataset, test *data.Dataset) (*Simulation, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	if len(locals) == 0 {
		return nil, fmt.Errorf("fl: no parties")
	}
	spec = cfg.ResolveSpec(spec)
	root := rng.New(cfg.Seed)
	clients := make([]*Client, len(locals))
	for i, ds := range locals {
		if ds.Len() == 0 {
			return nil, fmt.Errorf("fl: party %d has no data", i)
		}
		clients[i] = NewClient(i, ds, spec, root.Split())
	}
	initModel := nn.Build(spec, root.Split())
	sim := &Simulation{
		Cfg:     cfg,
		Spec:    spec,
		Clients: clients,
		Test:    test,
		eval:    NewEvaluator(spec, test),
	}
	sim.server = NewServer(cfg, initModel.State(), initModel.ParamCount(), len(clients))
	var dists [][]float64
	if cfg.Sampling == SampleStratified && cfg.SampleFraction < 1 {
		dists = make([][]float64, len(clients))
		for i, cl := range clients {
			dists[i] = cl.Data.LabelDistribution()
		}
	}
	sim.engine, err = NewEngine(cfg, sim.server, sim.eval, len(clients), root.Split(), dists)
	if err != nil {
		return nil, err
	}
	return sim, nil
}

// sampleParties selects a round's participants (exposed for tests).
func (s *Simulation) sampleParties() []int { return s.engine.sampleParties(nil) }

// PartyMeta implements Transport.
func (s *Simulation) PartyMeta(id int) UpdateMeta {
	n := s.Clients[id].Data.Len()
	return UpdateMeta{N: n, Tau: PredictTau(s.Cfg, n)}
}

// TrainRound implements Transport: it fans the sampled parties out across
// up to Cfg.Parallelism goroutines and streams their updates to the sink
// in sampled order, folding each as soon as its slot is the next in line
// — so at most ~Parallelism update vectors are in flight instead of the
// whole round's. Each party delivers its delta as a chunk stream of
// Cfg.ChunkSize views into its pooled workspace (each vector whole at
// 0), never a fresh state-length copy; the arithmetic is bit-identical
// to whole-update delivery through RoundSink.Deliver.
//
// Each sampled client's kernels run under a budget of Parallelism/conc
// workers, so clients x kernel goroutines never exceeds this run's core
// share. The budgets are per-model — no process-global state — which is
// what lets two Simulations share a process safely.
func (s *Simulation) TrainRound(round int, sampled []int, global, control []float64, sink *RoundSink) error {
	conc := s.Cfg.Parallelism
	if conc > len(sampled) {
		conc = len(sampled)
	}
	// Split this run's own core share (Cfg.Parallelism, GOMAXPROCS by
	// default) across the concurrent clients — not the whole machine, so
	// several runs in one process (experiment grid cells) stay within
	// their slices.
	budget := tensor.Compute{Workers: s.Cfg.Parallelism}.Split(conc)
	slots := make([]chan *PendingUpdate, len(sampled))
	for j := range slots {
		slots[j] = make(chan *PendingUpdate, 1)
	}
	sem := make(chan struct{}, s.Cfg.Parallelism)
	for j, id := range sampled {
		go func(j, id int) {
			sem <- struct{}{}
			defer func() { <-sem }()
			cl := s.Clients[id]
			cl.SetComputeBudget(budget)
			slots[j] <- cl.TrainStream(global, control, s.Cfg)
		}(j, id)
	}
	for j := range slots {
		p := <-slots[j]
		err := p.Chunks(s.Cfg.ChunkSize, func(offset int, chunk []float64) error {
			return sink.AddChunk(j, offset, chunk)
		})
		if err == nil {
			err = sink.FinishUpdate(j, p.Trailer())
		}
		p.Release()
		if err != nil {
			// Release stragglers so their pooled deltas are not stranded;
			// the buffered slots mean the training goroutines never block.
			for k := j + 1; k < len(slots); k++ {
				go func(k int) { (<-slots[k]).Release() }(k)
			}
			return err
		}
	}
	return nil
}

// RunRound executes one communication round and returns its metrics.
func (s *Simulation) RunRound(round int) (RoundMetrics, error) {
	return s.engine.RunRound(s, round)
}

// Run executes the configured number of rounds and returns the result.
func (s *Simulation) Run() (*Result, error) {
	return s.engine.Run(s)
}

// GlobalState exposes the current global model state (for tests and for
// transports).
func (s *Simulation) GlobalState() []float64 { return s.server.State() }

// evalBatch is the evaluation mini-batch size.
const evalBatch = 256

// evalShard is one evaluation worker: layers cache per-call state inside
// Forward, so concurrent evaluation needs a model replica (plus batch
// scratch) per goroutine — that replica is what makes eval-mode Forward
// reentrant across shards. All scratch is reused across rounds.
type evalShard struct {
	model *nn.Sequential
	xBuf  *tensor.Tensor
	yBuf  []int
	pred  []int
	idx   []int
}

// accuracyRange counts correct predictions on test samples [lo, hi).
func (s *evalShard) accuracyRange(spec nn.ModelSpec, test *data.Dataset, state []float64, lo, hi int) int {
	s.model.SetState(state)
	if s.xBuf == nil {
		// Pre-size to the model's dtype so BatchInto narrows for float32.
		s.xBuf = tensor.EnsureOf(spec.DType, nil, min(evalBatch, hi-lo), test.FeatLen)
	}
	correct := 0
	for start := lo; start < hi; start += evalBatch {
		end := start + evalBatch
		if end > hi {
			end = hi
		}
		if cap(s.idx) < end-start {
			s.idx = make([]int, 0, evalBatch)
		}
		s.idx = s.idx[:0]
		for i := start; i < end; i++ {
			s.idx = append(s.idx, i)
		}
		s.xBuf, s.yBuf = test.BatchInto(s.xBuf, s.yBuf, s.idx)
		s.pred = nn.PredictInto(s.pred, s.model.Forward(spec.ShapeBatch(s.xBuf), false))
		for i := range s.pred {
			if s.pred[i] == s.yBuf[i] {
				correct++
			}
		}
	}
	return correct
}

// Evaluator measures test accuracy of a model state. The test set is
// sharded across the evaluator's compute budget (all cores by default)
// between rounds, each shard owning a model replica and its batch scratch
// (reused across calls), so evaluation uses its core share while staying
// essentially allocation-free.
type Evaluator struct {
	spec   nn.ModelSpec
	test   *data.Dataset
	shards []*evalShard
	cmp    tensor.Compute
}

// NewEvaluator builds an evaluator; shard replicas are created on first
// use (one on single-core machines).
func NewEvaluator(spec nn.ModelSpec, test *data.Dataset) *Evaluator {
	return &Evaluator{spec: spec, test: test}
}

// SetCompute bounds the evaluator's total fan-out (shards x per-shard
// kernel workers). The round engine sets it to the run's Parallelism so
// concurrent runs in one process evaluate within their core shares.
func (e *Evaluator) SetCompute(c tensor.Compute) { e.cmp = c }

// shard returns the i-th worker, growing the replica list on demand. The
// replica weights are overwritten by SetState every call, so the init RNG
// seed does not matter.
func (e *Evaluator) shard(i int) *evalShard {
	for len(e.shards) <= i {
		e.shards = append(e.shards, &evalShard{model: nn.Build(e.spec, rng.New(0xe7a1))})
	}
	return e.shards[i]
}

// Accuracy computes top-1 accuracy of the given state on the test set.
func (e *Evaluator) Accuracy(state []float64) float64 {
	if e.test == nil || e.test.Len() == 0 {
		return 0
	}
	n := e.test.Len()
	shards := e.cmp.Resolve()
	if maxShards := (n + evalBatch - 1) / evalBatch; shards > maxShards {
		shards = maxShards
	}
	if shards <= 1 {
		return float64(e.shard(0).accuracyRange(e.spec, e.test, state, 0, n)) / float64(n)
	}
	// The same oversubscription guard as TrainRound: each shard's model
	// gets its own kernel budget so shards x kernel goroutines stays
	// within the evaluator's budget.
	budget := e.cmp.Split(shards)
	// Contiguous per-shard ranges rounded up to whole batches so every
	// shard but the last runs full mini-batches.
	per := (n + shards - 1) / shards
	per = (per + evalBatch - 1) / evalBatch * evalBatch
	counts := make([]int, shards)
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		lo := i * per
		if lo >= n {
			break
		}
		hi := min(lo+per, n)
		sh := e.shard(i)
		sh.model.SetCompute(budget)
		wg.Add(1)
		go func(i int, sh *evalShard, lo, hi int) {
			defer wg.Done()
			counts[i] = sh.accuracyRange(e.spec, e.test, state, lo, hi)
		}(i, sh, lo, hi)
	}
	wg.Wait()
	correct := 0
	for _, c := range counts {
		correct += c
	}
	return float64(correct) / float64(n)
}
