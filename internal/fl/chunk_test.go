package fl

import (
	"math"
	"testing"

	"github.com/niid-bench/niidbench/internal/rng"
)

// TestChunkStateMachine exercises the chunked accumulator's misuse
// errors: wrong update index, out-of-order/overlapping/oversized offsets,
// finishing an incomplete stream, trailer mismatches, and mixing a whole
// AddUpdate into an open chunk stream.
func TestChunkStateMachine(t *testing.T) {
	cfg, _ := Config{}.Normalize()
	s := NewServer(cfg, []float64{0, 0, 0, 0}, 4, 2)
	if err := s.AddUpdateChunk(0, 0, []float64{1}); err == nil {
		t.Fatal("AddUpdateChunk outside a round should fail")
	}
	metas := []UpdateMeta{{N: 10, Tau: 2}, {N: 20, Tau: 2}}
	if err := s.BeginRound(metas); err != nil {
		t.Fatal(err)
	}
	if err := s.AddUpdateChunk(1, 0, []float64{1}); err == nil {
		t.Fatal("chunk for the wrong update index should fail")
	}
	if err := s.AddUpdateChunk(0, 1, []float64{1}); err == nil {
		t.Fatal("chunk with a leading gap should fail")
	}
	if err := s.AddUpdateChunk(0, 0, nil); err == nil {
		t.Fatal("empty chunk should fail")
	}
	if err := s.AddUpdateChunk(0, 0, []float64{1, 2, 3, 4, 5}); err == nil {
		t.Fatal("chunk beyond the stream length should fail")
	}
	if err := s.AddUpdateChunk(0, 0, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddUpdateChunk(0, 1, []float64{3}); err == nil {
		t.Fatal("overlapping offset should fail")
	}
	if err := s.AddUpdateChunk(0, 3, []float64{4}); err == nil {
		t.Fatal("gapped offset should fail")
	}
	if err := s.FinishUpdate(Update{N: 10, Tau: 2}); err == nil {
		t.Fatal("FinishUpdate with an incomplete stream should fail")
	}
	if err := s.AddUpdate(Update{Delta: []float64{1, 1, 1, 1}, N: 10, Tau: 2}); err == nil {
		t.Fatal("AddUpdate during an open chunk stream should fail")
	}
	if err := s.AddUpdateChunk(0, 2, []float64{3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := s.FinishUpdate(Update{N: 10, Tau: 2, Delta: []float64{1}}); err == nil {
		t.Fatal("trailer carrying a delta vector should fail")
	}
	if err := s.FinishUpdate(Update{N: 10, Tau: 3}); err == nil {
		t.Fatal("trailer mismatching the meta should fail")
	}
	if err := s.FinishUpdate(Update{N: 10, Tau: 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddUpdate(Update{Delta: []float64{1, 1, 1, 1}, N: 20, Tau: 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.FinishRound(); err != nil {
		t.Fatal(err)
	}
}

// TestDropReweightsSurvivors drops one mid-round update (after part of
// its chunk stream was staged) and checks the finished state against a
// fresh batched aggregation over the survivors only, for every algorithm
// and both weighting modes. The drop path renormalizes with one scalar,
// so equality is to rounding (1e-12 relative), not bitwise.
func TestDropReweightsSurvivors(t *testing.T) {
	const paramLen, stateLen, parties = 11, 14, 4
	initial := make([]float64, stateLen)
	ir := rng.New(5)
	for i := range initial {
		initial[i] = 2*ir.Float64() - 1
	}
	for _, alg := range ExtendedAlgorithms() {
		for _, unweighted := range []bool{false, true} {
			cfg, err := Config{Algorithm: alg, Unweighted: unweighted}.Normalize()
			if err != nil {
				t.Fatal(err)
			}
			dropping := NewServer(cfg, initial, paramLen, parties)
			reference := NewServer(cfg, initial, paramLen, parties)
			r := rng.New(23)
			ups := synthUpdates(r, parties, stateLen, paramLen, alg == Scaffold)

			metas := make([]UpdateMeta, len(ups))
			for j, u := range ups {
				metas[j] = UpdateMeta{N: u.N, Tau: u.Tau}
			}
			if err := dropping.BeginRound(metas); err != nil {
				t.Fatal(err)
			}
			const victim = 1
			for j, u := range ups {
				if j == victim {
					// Stage part of the stream, then abandon it — nothing
					// of it may reach the accumulator.
					if err := dropping.AddUpdateChunk(j, 0, u.Delta[:5]); err != nil {
						t.Fatal(err)
					}
					if err := dropping.DropUpdate(); err != nil {
						t.Fatal(err)
					}
					continue
				}
				if err := dropping.AddUpdate(u); err != nil {
					t.Fatalf("%s: %v", alg, err)
				}
			}
			if err := dropping.FinishRound(); err != nil {
				t.Fatalf("%s: %v", alg, err)
			}

			survivors := append(append([]Update{}, ups[:victim]...), ups[victim+1:]...)
			if err := reference.aggregateBatched(survivors); err != nil {
				t.Fatalf("%s: %v", alg, err)
			}
			for i := range dropping.State() {
				got, want := dropping.State()[i], reference.State()[i]
				if math.Abs(got-want) > 1e-12*math.Max(1, math.Abs(want)) {
					t.Fatalf("%s unweighted=%v: state[%d] dropped-round %v vs survivors-only %v",
						alg, unweighted, i, got, want)
				}
			}
			if alg == Scaffold {
				// The control fold is weight-independent, so survivors
				// match bitwise.
				for i := range dropping.Control() {
					if dropping.Control()[i] != reference.Control()[i] {
						t.Fatalf("scaffold: control[%d] %v vs %v", i, dropping.Control()[i], reference.Control()[i])
					}
				}
			}
		}
	}
}

// TestAllUpdatesDroppedFailsRound pins the degenerate case: a round where
// every party was dropped cannot finish.
func TestAllUpdatesDroppedFailsRound(t *testing.T) {
	cfg, _ := Config{}.Normalize()
	s := NewServer(cfg, []float64{0, 0}, 2, 2)
	if err := s.BeginRound([]UpdateMeta{{N: 5, Tau: 1}, {N: 5, Tau: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := s.DropUpdate(); err != nil {
		t.Fatal(err)
	}
	if err := s.DropUpdate(); err != nil {
		t.Fatal(err)
	}
	if err := s.DropUpdate(); err == nil {
		t.Fatal("dropping beyond the sampled parties should fail")
	}
	if err := s.FinishRound(); err == nil {
		t.Fatal("a round with zero surviving updates should fail to finish")
	}
}

// TestEmptyPartyWeightingNoNaN is the regression test for the empty-party
// weighting bug: metas with N=0 (zero local samples, zero steps) must not
// produce NaN weights — FedNova's tau division and the weighted rule's
// 0/0 were both capable of poisoning the accumulator.
func TestEmptyPartyWeightingNoNaN(t *testing.T) {
	const paramLen, stateLen = 3, 4
	initial := []float64{1, -1, 0.5, 2}
	zero := make([]float64, stateLen)
	zeroC := make([]float64, paramLen)
	for _, alg := range ExtendedAlgorithms() {
		for _, unweighted := range []bool{false, true} {
			cfg, err := Config{Algorithm: alg, Unweighted: unweighted}.Normalize()
			if err != nil {
				t.Fatal(err)
			}
			emptyUpdate := Update{Delta: zero}
			if alg == Scaffold {
				emptyUpdate.DeltaC = zeroC
			}
			live := Update{Delta: []float64{1, 2, 3, 4}, N: 10, Tau: 2}
			if alg == Scaffold {
				live.DeltaC = []float64{0.1, 0.2, 0.3}
			}

			// Mixed round: one live and one empty party.
			s := NewServer(cfg, initial, paramLen, 2)
			if err := s.Aggregate([]Update{live, emptyUpdate}); err != nil {
				t.Fatalf("%s mixed: %v", alg, err)
			}
			for i, v := range s.State() {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s unweighted=%v mixed round: state[%d] = %v", alg, unweighted, i, v)
				}
			}

			// All-empty round: totalN == 0 used to divide 0/0.
			s = NewServer(cfg, initial, paramLen, 2)
			e2 := emptyUpdate
			e2.Delta = append([]float64{}, zero...)
			if err := s.Aggregate([]Update{emptyUpdate, e2}); err != nil {
				t.Fatalf("%s all-empty: %v", alg, err)
			}
			for i, v := range s.State() {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s unweighted=%v all-empty round: state[%d] = %v", alg, unweighted, i, v)
				}
				if v != initial[i] && alg != FedDyn {
					// Zero deltas must leave the state untouched (FedDyn's
					// h-correction also stays zero but check only NaN there).
					t.Fatalf("%s: all-zero round moved state[%d] from %v to %v", alg, i, initial[i], v)
				}
			}
		}
	}
}

// wholeTransport is Simulation's transport with whole-update delivery:
// every sampled client trains through LocalTrain (TrainStream's copy-out)
// and the sink folds the whole update through RoundSink.Deliver, as a
// custom Transport built on LocalTrain does. Clients train one at a
// time; compute budgets change scheduling, never arithmetic.
type wholeTransport struct{ *Simulation }

func (w wholeTransport) TrainRound(round int, sampled []int, global, control []float64, sink *RoundSink) error {
	for _, id := range sampled {
		if err := sink.Deliver(w.Clients[id].LocalTrain(global, control, w.Cfg)); err != nil {
			return err
		}
	}
	return nil
}

// TestSimulationChunkedBitIdentical pins the Simulation's chunk-stream
// delivery bitwise against whole-update delivery through
// RoundSink.Deliver, for all six algorithms, at ChunkSize 0 (each vector
// one chunk) and at a small size misaligned with every vector length:
// framing must change memory behaviour only, never arithmetic.
func TestSimulationChunkedBitIdentical(t *testing.T) {
	for _, alg := range ExtendedAlgorithms() {
		cfg := quickCfg(alg)
		cfg.Rounds = 2
		ref := buildSim(t, cfg)
		whole, err := ref.engine.Run(wholeTransport{ref})
		if err != nil {
			t.Fatal(err)
		}
		for _, chunk := range []int{0, 7} {
			c := cfg
			c.ChunkSize = chunk
			got, err := buildSim(t, c).Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(whole.FinalState) != len(got.FinalState) {
				t.Fatalf("%s chunk=%d: state length %d vs %d", alg, chunk, len(whole.FinalState), len(got.FinalState))
			}
			for i := range whole.FinalState {
				if math.Float64bits(whole.FinalState[i]) != math.Float64bits(got.FinalState[i]) {
					t.Fatalf("%s chunk=%d: state[%d] whole %v vs chunked %v", alg, chunk, i, whole.FinalState[i], got.FinalState[i])
				}
			}
			for r := range whole.Curve {
				if whole.Curve[r].TrainLoss != got.Curve[r].TrainLoss ||
					whole.Curve[r].TestAccuracy != got.Curve[r].TestAccuracy ||
					whole.Curve[r].CommBytes != got.Curve[r].CommBytes {
					t.Fatalf("%s chunk=%d round %d: metrics diverged", alg, chunk, r)
				}
			}
		}
	}
}

// TestChunkWindowNormalize pins the ChunkWindow config contract: zero
// takes the default, explicit widths survive, negatives are rejected.
func TestChunkWindowNormalize(t *testing.T) {
	c, err := Config{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if c.ChunkWindow != 4 {
		t.Fatalf("default chunk window %d, want 4", c.ChunkWindow)
	}
	c, err = Config{ChunkWindow: 9}.Normalize()
	if err != nil || c.ChunkWindow != 9 {
		t.Fatalf("explicit chunk window: %d, %v", c.ChunkWindow, err)
	}
	if _, err := (Config{ChunkWindow: -1}).Normalize(); err == nil {
		t.Fatal("negative chunk window should be rejected")
	}
}
