package simnet

import (
	"bytes"
	"math"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/partition"
	"github.com/niid-bench/niidbench/internal/rng"
)

// TestCodecRoundTripGlobal round-trips an in-memory round broadcast
// through the frame set the server sends for it and the party's
// reassembly: at ChunkSize 0 (one frame per vector) and at a chunk size
// that splits both vectors, the state/control split, round, budget and
// chunk must come back exactly.
func TestCodecRoundTripGlobal(t *testing.T) {
	in := GlobalMsg{Round: 7, State: []float64{1.5, -2, 0}, Control: []float64{3, 4}, Budget: 2}
	for _, chunk := range []int{0, 2} {
		in.Chunk = chunk
		frames, err := encodeGlobalFrames(in, wireCodecF64)
		if err != nil {
			t.Fatal(err)
		}
		if want := globalFramesWireSize(len(in.State), len(in.Control), chunk); want != int64(len(bytes.Join(frames, nil))) {
			t.Fatalf("chunk=%d: frame set is %d bytes, globalFramesWireSize says %d", chunk, len(bytes.Join(frames, nil)), want)
		}
		var got []float64
		for i, raw := range frames {
			m, codec, err := decodeGlobalFrameInto(raw, nil)
			if err != nil {
				t.Fatal(err)
			}
			if m.Round != in.Round || m.Budget != in.Budget || m.Chunk != chunk || codec != wireCodecF64 ||
				m.Offset != len(got) || m.CtrlLen != len(in.Control) || m.Last != (i == len(frames)-1) {
				t.Fatalf("chunk=%d frame %d header: %+v", chunk, i, m)
			}
			got = append(got, m.Payload...)
		}
		want := append(append([]float64{}, in.State...), in.Control...)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("chunk=%d: reassembled %v, want %v", chunk, got, want)
		}
	}
}

// TestCodecRoundTripUpdate round-trips a party's update through the
// uplink frames it encodes (appendUpdateFrame) and the server's stream
// validation and assembly (uplinkStream), at ChunkSize 0 and at a chunk
// size that splits both vectors.
func TestCodecRoundTripUpdate(t *testing.T) {
	delta, deltaC := []float64{1, 2, -3}, []float64{0.5, 0.25}
	total := len(delta) + len(deltaC)
	for _, tc := range []struct{ chunk, frames int }{{0, 2}, {2, 3}} {
		chunk := tc.chunk
		s := uplinkStream{id: 1, round: 3, total: total, bound: frameBound(chunk, total), meta: fl.UpdateMeta{N: 100, Tau: 17}}
		data := make([]float64, total)
		var qbuf []byte
		frames := 0
		done := false
		err := fl.ChunkStream(delta, deltaC, chunk, func(off int, c []float64) error {
			b, err := appendUpdateFrame(nil, &qbuf, wireCodecF64, UpdateChunkMsg{Round: 3, Offset: off, Total: total,
				N: 100, Tau: 17, TrainLoss: 0.25, Last: off+len(c) == total, Chunk: c})
			if err != nil {
				return err
			}
			m, codec, err := decodeUpdateFrameInto(b, nil)
			if err != nil {
				return err
			}
			frames++
			done, err = s.accept(m, codec, data)
			return err
		})
		if err != nil {
			t.Fatalf("chunk=%d: %v", chunk, err)
		}
		if !done || frames != tc.frames {
			t.Fatalf("chunk=%d: stream done=%v after %d frames", chunk, done, frames)
		}
		if want := append(append([]float64{}, delta...), deltaC...); !reflect.DeepEqual(data, want) {
			t.Fatalf("chunk=%d: assembled %v, want %v", chunk, data, want)
		}
	}
}

func TestCodecShutdown(t *testing.T) {
	b, err := Marshal(ShutdownMsg{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := out.(ShutdownMsg); !ok {
		t.Fatalf("got %T", out)
	}
}

func TestCodecPropertyRoundTrip(t *testing.T) {
	err := quick.Check(func(round, offset uint16, payload []float64, last bool) bool {
		in := GlobalChunkMsg{Round: int(round), Offset: int(offset), Total: int(offset) + len(payload),
			Last: last, Payload: payload}
		b, err := Marshal(in)
		if err != nil {
			return false
		}
		out, err := Unmarshal(b)
		if err != nil {
			return false
		}
		got := out.(GlobalChunkMsg)
		if got.Round != in.Round || got.Offset != in.Offset || got.Total != in.Total ||
			got.Last != last || len(got.Payload) != len(payload) {
			return false
		}
		for i := range payload {
			if math.Float64bits(payload[i]) != math.Float64bits(got.Payload[i]) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCodecErrors(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Fatal("expected error for empty")
	}
	if _, err := Unmarshal([]byte{99}); err == nil {
		t.Fatal("expected error for unknown tag")
	}
	if _, err := Unmarshal([]byte{msgGlobalChunk, 1, 2}); err == nil {
		t.Fatal("expected error for truncation")
	}
	// The retired whole-message tags (GlobalMsg 1, UpdateMsg 2) are
	// unknown, not aliases of another frame.
	for _, tag := range []byte{1, 2} {
		if _, err := Unmarshal([]byte{tag, 0, 0, 0, 0}); err == nil {
			t.Fatalf("retired tag %d decoded", tag)
		}
	}
	if _, err := Marshal(42); err == nil {
		t.Fatal("expected error for unsupported type")
	}
}

func TestPipeDuplex(t *testing.T) {
	a, b := Pipe()
	if err := a.Send([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("got %q", got)
	}
	if err := b.Send([]byte("world")); err != nil {
		t.Fatal(err)
	}
	got, err = a.Recv()
	if err != nil || string(got) != "world" {
		t.Fatalf("reverse direction: %q %v", got, err)
	}
}

func TestPipeCloseUnblocksRecv(t *testing.T) {
	a, b := Pipe()
	done := make(chan error, 1)
	go func() {
		_, err := b.Recv()
		done <- err
	}()
	a.Close()
	if err := <-done; err == nil {
		t.Fatal("Recv on closed pipe should fail")
	}
}

func TestCountingConn(t *testing.T) {
	a, b := Pipe()
	ca := NewCountingConn(a)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		msg, _ := b.Recv()
		_ = b.Send(msg)
	}()
	if err := ca.Send(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := ca.Recv(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if ca.Sent() != 100 || ca.Received() != 100 {
		t.Fatalf("counts: sent %d recv %d", ca.Sent(), ca.Received())
	}
}

// smallFederation builds a 3-party adult federation for protocol tests.
func smallFederation(t *testing.T) (fl.Config, []*data.Dataset, *data.Dataset) {
	t.Helper()
	train, test, err := data.Load("adult", data.Config{TrainN: 600, TestN: 200, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	_, locals, err := partition.Strategy{Kind: partition.Homogeneous}.Split(train, 3, rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	cfg := fl.Config{Algorithm: fl.FedAvg, Rounds: 4, LocalEpochs: 2, BatchSize: 32, LR: 0.05, Seed: 5}
	return cfg, locals, test
}

func TestRunLocalMatchesLearning(t *testing.T) {
	cfg, locals, test := smallFederation(t)
	spec, _ := data.Model("adult")
	res, err := RunLocal(cfg, spec, locals, test)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve) != 4 {
		t.Fatalf("rounds: %d", len(res.Curve))
	}
	if res.FinalAccuracy < 0.60 {
		t.Fatalf("accuracy %v", res.FinalAccuracy)
	}
	if res.TotalCommBytes == 0 {
		t.Fatal("no bytes counted")
	}
}

func TestRunLocalMeasuredBytesMatchAnalytic(t *testing.T) {
	cfg, locals, test := smallFederation(t)
	spec, _ := data.Model("adult")
	res, err := RunLocal(cfg, spec, locals, test)
	if err != nil {
		t.Fatal(err)
	}
	// Analytic estimate: 2 state vectors per party per round (down+up),
	// 8 bytes each, plus small headers.
	analytic := float64(2*res.StateCount*8) * 3
	measured := res.CommBytesPerRound
	if measured < analytic || measured > analytic*1.01 {
		t.Fatalf("measured %v bytes/round, analytic %v (headers should add <1%%)", measured, analytic)
	}
}

func TestScaffoldOverTransportDoublesBytes(t *testing.T) {
	cfg, locals, test := smallFederation(t)
	spec, _ := data.Model("adult")
	avg, err := RunLocal(cfg, spec, locals, test)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Algorithm = fl.Scaffold
	sca, err := RunLocal(cfg, spec, locals, test)
	if err != nil {
		t.Fatal(err)
	}
	ratio := sca.CommBytesPerRound / avg.CommBytesPerRound
	if ratio < 1.8 || ratio > 2.1 {
		t.Fatalf("scaffold/fedavg measured ratio %v, want ~2", ratio)
	}
}

func TestRunLocalAgreesWithSimulation(t *testing.T) {
	// The transport must not change the math: same config and seeds give
	// the same learning behaviour (not bit-identical because party RNG
	// streams differ, but accuracy should be in the same band).
	cfg, locals, test := smallFederation(t)
	spec, _ := data.Model("adult")
	viaNet, err := RunLocal(cfg, spec, locals, test)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := fl.NewSimulation(cfg, spec, locals, test)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(viaNet.FinalAccuracy-direct.FinalAccuracy) > 0.12 {
		t.Fatalf("transport accuracy %v vs simulation %v", viaNet.FinalAccuracy, direct.FinalAccuracy)
	}
}

func TestTCPFederation(t *testing.T) {
	cfg, locals, test := smallFederation(t)
	spec, _ := data.Model("adult")

	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr()
	type serveResult struct {
		res *fl.Result
		err error
	}
	resCh := make(chan serveResult, 1)
	go func() {
		res, err := ln.AcceptAndRun(len(locals), cfg, spec, test)
		resCh <- serveResult{res, err}
	}()
	var wg sync.WaitGroup
	for i, ds := range locals {
		wg.Add(1)
		go func(i int, ds *data.Dataset) {
			defer wg.Done()
			if err := DialParty(addr, i, ds, spec, cfg, uint64(100+i), ""); err != nil {
				t.Errorf("party %d: %v", i, err)
			}
		}(i, ds)
	}
	sr := <-resCh
	wg.Wait()
	if sr.err != nil {
		t.Fatal(sr.err)
	}
	if sr.res.FinalAccuracy < 0.60 {
		t.Fatalf("tcp federation accuracy %v", sr.res.FinalAccuracy)
	}
	if sr.res.TotalCommBytes == 0 {
		t.Fatal("no tcp bytes counted")
	}
}

func TestUnmarshalNeverPanicsOnGarbage(t *testing.T) {
	// Any byte soup must produce an error or a message, never a panic or
	// an out-of-range read.
	err := quick.Check(func(raw []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Unmarshal panicked on %v: %v", raw, r)
			}
		}()
		_, _ = Unmarshal(raw)
		return true
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalTruncationsOfValidMessage(t *testing.T) {
	msg, err := Marshal(UpdateChunkMsg{Round: 1, Offset: 4, Total: 7, N: 5, Tau: 3, TrainLoss: 0.5,
		Last: true, Chunk: []float64{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(msg); cut++ {
		if _, err := Unmarshal(msg[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d decoded successfully", cut, len(msg))
		}
	}
}

func TestStratifiedSamplingOverTransport(t *testing.T) {
	// Four single-label parties (two per class) and SampleFraction 0.5:
	// the stratified sampler clusters parties by label distribution and
	// draws one per cluster, so every round must sample exactly one party
	// from each label group. The old simnet server silently fell back to
	// uniform sampling; now both transports share the engine's sampler.
	train, test, err := data.Load("adult", data.Config{TrainN: 600, TestN: 200, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	_, locals, err := partition.Strategy{Kind: partition.LabelQuantity, K: 1}.Split(train, 4, rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	majority := make([]int, len(locals))
	for i, ds := range locals {
		counts := ds.ClassCounts()
		best := 0
		for c := range counts {
			if counts[c] > counts[best] {
				best = c
			}
		}
		majority[i] = best
	}
	spec, _ := data.Model("adult")
	cfg := fl.Config{
		Algorithm: fl.FedAvg, Rounds: 6, LocalEpochs: 1, BatchSize: 32,
		LR: 0.05, Seed: 5, SampleFraction: 0.5, Sampling: fl.SampleStratified,
	}
	res, err := RunLocal(cfg, spec, locals, test)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Curve {
		if len(m.Sampled) != 2 {
			t.Fatalf("round %d sampled %d parties, want one per label cluster (2)", m.Round, len(m.Sampled))
		}
		seen := map[int]bool{}
		for _, id := range m.Sampled {
			seen[majority[id]] = true
		}
		if len(seen) != 2 {
			t.Fatalf("round %d sampled parties %v cover label groups %v, want both classes", m.Round, m.Sampled, seen)
		}
	}
}

func TestTransportUpdatesToleratesSlowParty(t *testing.T) {
	// With per-party receiver goroutines the server folds whatever prefix
	// of the sampled order is ready; a straggling first party must not
	// deadlock nor corrupt the fold. The pipes deliver replies in whatever
	// order parties finish, which under concurrent training is already
	// out of order — this just pins the round completing correctly.
	cfg, locals, test := smallFederation(t)
	cfg.Rounds = 3
	spec, _ := data.Model("adult")
	res, err := RunLocal(cfg, spec, locals, test)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve) != 3 {
		t.Fatalf("rounds: %d", len(res.Curve))
	}
	for _, m := range res.Curve {
		if len(m.Sampled) != len(locals) {
			t.Fatalf("round %d sampled %v", m.Round, m.Sampled)
		}
	}
}
