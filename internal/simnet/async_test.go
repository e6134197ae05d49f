package simnet

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/partition"
	"github.com/niid-bench/niidbench/internal/rng"
)

// assertAsyncInvariants checks what every clean buffered-async run must
// satisfy, whatever the scheduling was: one metrics entry per generation,
// exactly buffer folds per flush, and a finite model.
func assertAsyncInvariants(t *testing.T, res *fl.Result, cfg fl.Config, parties int) {
	t.Helper()
	if res.Async == nil {
		t.Fatal("async run reported no AsyncStats")
	}
	if len(res.Curve) != cfg.Rounds {
		t.Fatalf("completed %d/%d generations", len(res.Curve), cfg.Rounds)
	}
	buffer := cfg.AsyncBuffer
	if buffer > parties {
		buffer = parties
	}
	if want := cfg.Rounds * buffer; res.Async.Folds != want {
		t.Fatalf("folds %d, want %d (%d generations x buffer %d)",
			res.Async.Folds, want, cfg.Rounds, buffer)
	}
	if res.Async.MeanStaleness < 0 || res.Async.MaxStaleness < 0 {
		t.Fatalf("negative staleness: mean %v max %d", res.Async.MeanStaleness, res.Async.MaxStaleness)
	}
	for i, v := range res.FinalState {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("state[%d] = %v", i, v)
		}
	}
}

// TestAsyncRunLocalAllAlgorithms runs the buffered-async mode over
// in-memory pipes for every algorithm: the barrier-free protocol must
// complete its generation schedule with the exact fold accounting and a
// finite model for each aggregation rule (SCAFFOLD's two-vector streams
// and control fold included).
func TestAsyncRunLocalAllAlgorithms(t *testing.T) {
	cfg, locals, test := smallFederation(t)
	cfg.Rounds = 3
	cfg.AsyncBuffer = 2
	cfg.ChunkSize = 256
	cfg.Mu = 0.01
	spec, _ := data.Model("adult")
	for _, alg := range fl.ExtendedAlgorithms() {
		t.Run(string(alg), func(t *testing.T) {
			c := cfg
			c.Algorithm = alg
			res, err := RunLocal(c, spec, locals, test)
			if err != nil {
				t.Fatal(err)
			}
			assertAsyncInvariants(t, res, c, len(locals))
		})
	}
}

// TestAsyncMonolithicRunLocal covers async mode at ChunkSize 0, where
// every update and every broadcast vector travels as a single chunk
// frame — serialized, never the pipes' interning shortcut, which is
// lockstep-only. The federation must still learn.
func TestAsyncMonolithicRunLocal(t *testing.T) {
	cfg, locals, test := smallFederation(t)
	cfg.Rounds = 4
	cfg.AsyncBuffer = 2
	spec, _ := data.Model("adult")
	res, err := RunLocal(cfg, spec, locals, test)
	if err != nil {
		t.Fatal(err)
	}
	assertAsyncInvariants(t, res, cfg, len(locals))
	if res.FinalAccuracy < 0.5 {
		t.Fatalf("async federation failed to learn: accuracy %v", res.FinalAccuracy)
	}
}

// runAsyncTCP runs a buffered-async federation over loopback TCP, every
// party dialing with rejoin enabled and an optional per-party fault plan.
// Party errors are returned alongside the server result; with drop chaos
// the tail redials may legitimately fail, so callers decide how strict to
// be.
func runAsyncTCP(t *testing.T, cfg fl.Config, locals []*data.Dataset, test *data.Dataset, planFor func(i int) *FaultPlan) (*fl.Result, []error) {
	t.Helper()
	spec, _ := data.Model("adult")
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ln.RoundTimeout = 20 * time.Second
	ln.RejoinGrace = 300 * time.Millisecond
	addr := ln.Addr()
	resCh := make(chan *fl.Result, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := ln.AcceptAndRun(len(locals), cfg, spec, test)
		resCh <- res
		errCh <- err
	}()
	partyErrs := make([]error, len(locals))
	var wg sync.WaitGroup
	for i, ds := range locals {
		wg.Add(1)
		go func(i int, ds *data.Dataset) {
			defer wg.Done()
			partyErrs[i] = DialPartyOpts(addr, i, ds, spec, cfg, cfg.Seed+uint64(i)*7919+13, PartyOptions{
				Rejoin:           true,
				RejoinBackoff:    5 * time.Millisecond,
				RejoinBackoffMax: 50 * time.Millisecond,
				RejoinAttempts:   40,
				Faults:           planFor(i),
			})
		}(i, ds)
	}
	res, serveErr := <-resCh, <-errCh
	_ = ln.Close()
	wg.Wait()
	if serveErr != nil {
		t.Fatalf("async federation aborted: %v", serveErr)
	}
	return res, partyErrs
}

// TestAsyncTCPStraggler is the pipelining payoff test shape: a quarter of
// the parties dial through a per-frame latency plan, and the buffered
// server — folding the fast parties' updates as they land instead of
// barriering the round on the slowest stream — must still complete the
// full generation schedule with clean party exits (latency faults never
// break a connection).
func TestAsyncTCPStraggler(t *testing.T) {
	const parties = 8
	train, test, err := data.Load("adult", data.Config{TrainN: 400, TestN: 120, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	_, locals, err := partition.Strategy{Kind: partition.Homogeneous}.Split(train, parties, rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	cfg := fl.Config{
		Algorithm: fl.Scaffold, Rounds: 3, LocalEpochs: 1, BatchSize: 32,
		LR: 0.05, Seed: 5, ChunkSize: 512, AsyncBuffer: 4,
	}
	slow := &FaultPlan{Seed: 17, Latency: 2 * time.Millisecond, Jitter: 3 * time.Millisecond}
	res, partyErrs := runAsyncTCP(t, cfg, locals, test, func(i int) *FaultPlan {
		if i < parties/4 {
			return slow
		}
		return nil
	})
	for i, err := range partyErrs {
		if err != nil {
			t.Fatalf("party %d: %v", i, err)
		}
	}
	assertAsyncInvariants(t, res, cfg, parties)
}

// TestAsyncSoakDropRejoin is the async -race soak: 48 parties (12 in
// -short) over loopback TCP under connection-killing chaos, every party
// rejoining with fast backoff. The barrier-free server — senders,
// receivers, evictions, rejoin installs and the dedup filter all running
// concurrently — must complete the generation schedule no matter how the
// drops land.
func TestAsyncSoakDropRejoin(t *testing.T) {
	parties := 48
	if testing.Short() {
		parties = 12
	}
	train, test, err := data.Load("adult", data.Config{TrainN: parties * 12, TestN: 100, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	_, locals, err := partition.Strategy{Kind: partition.Homogeneous}.Split(train, parties, rng.New(32))
	if err != nil {
		t.Fatal(err)
	}
	cfg := fl.Config{
		Algorithm: fl.Scaffold, Rounds: 3, LocalEpochs: 1, BatchSize: 16,
		LR: 0.05, Seed: 7, ChunkSize: 512, AsyncBuffer: parties / 4,
	}
	plan := &FaultPlan{Seed: 99, DropProb: 0.01, Grace: 1}
	// Party errors are part of the chaos (a party cut loose at the very
	// end may exhaust its redials against a finished server); the
	// server-side result is the oracle.
	res, _ := runAsyncTCP(t, cfg, locals, test, func(int) *FaultPlan { return plan })
	if len(res.Curve) != cfg.Rounds {
		t.Fatalf("completed %d/%d generations", len(res.Curve), cfg.Rounds)
	}
	if res.Async == nil || res.Async.Folds < cfg.Rounds*cfg.AsyncBuffer {
		t.Fatalf("async stats missing or short: %+v", res.Async)
	}
	for i, v := range res.FinalState {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("state[%d] = %v", i, v)
		}
	}
}

// TestPipelinedDownlinkBitwiseAllAlgorithms pins the party-side pipeline
// — double-buffered downlink reception and prefix training on streamed
// chunks — bitwise against the in-process reference for every algorithm:
// the same federation over real TCP, every frame in both directions
// delayed by a per-party latency/jitter fault stream, must produce the
// identical final state and per-round losses. Timing faults reorder
// arrivals across parties but never the math.
func TestPipelinedDownlinkBitwiseAllAlgorithms(t *testing.T) {
	train, test, err := data.Load("adult", data.Config{TrainN: 300, TestN: 120, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	_, locals, err := partition.Strategy{Kind: partition.Homogeneous}.Split(train, 3, rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := data.Model("adult")
	plan := &FaultPlan{Seed: 43, Latency: time.Millisecond, Jitter: 2 * time.Millisecond, Grace: 1}
	for _, alg := range fl.ExtendedAlgorithms() {
		t.Run(string(alg), func(t *testing.T) {
			cfg := fl.Config{
				Algorithm: alg, Rounds: 2, LocalEpochs: 1, BatchSize: 32,
				LR: 0.05, Mu: 0.01, Seed: 5, ChunkSize: 256, ChunkWindow: 64,
			}
			ref, err := RunLocal(cfg, spec, locals, test)
			if err != nil {
				t.Fatal(err)
			}

			ln, err := Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			ln.RoundTimeout = 20 * time.Second
			addr := ln.Addr()
			resCh := make(chan *fl.Result, 1)
			errCh := make(chan error, 1)
			go func() {
				res, err := ln.AcceptAndRun(len(locals), cfg, spec, test)
				resCh <- res
				errCh <- err
			}()
			var wg sync.WaitGroup
			for i, ds := range locals {
				wg.Add(1)
				go func(i int, ds *data.Dataset) {
					defer wg.Done()
					if err := DialPartyOpts(addr, i, ds, spec, cfg, cfg.Seed+uint64(i)*7919+13, PartyOptions{
						Faults: plan,
					}); err != nil {
						t.Errorf("party %d: %v", i, err)
					}
				}(i, ds)
			}
			res, serveErr := <-resCh, <-errCh
			wg.Wait()
			if serveErr != nil {
				t.Fatal(serveErr)
			}
			if len(res.FinalState) != len(ref.FinalState) {
				t.Fatalf("state length %d, want %d", len(res.FinalState), len(ref.FinalState))
			}
			for i := range ref.FinalState {
				if res.FinalState[i] != ref.FinalState[i] {
					t.Fatalf("state[%d]: tcp %v vs pipes %v", i, res.FinalState[i], ref.FinalState[i])
				}
			}
			for r := range ref.Curve {
				if res.Curve[r].TrainLoss != ref.Curve[r].TrainLoss {
					t.Fatalf("round %d: loss tcp %v vs pipes %v", r, res.Curve[r].TrainLoss, ref.Curve[r].TrainLoss)
				}
			}
		})
	}
}

// TestFoldAheadStragglerIndependence is the regression test for the
// serial straggler drain: with fold-ahead staging, one slow party delays
// the fold by only its own stream. Three scripted parties stream chunked
// replies over pipes whose buffers hold far fewer frames than a stream;
// the first sampled party withholds its entire reply while the other two
// must be able to push their complete streams through — under the old
// serial drain their sends would block behind the straggler once the
// receive window and pipe buffers filled.
func TestFoldAheadStragglerIndependence(t *testing.T) {
	_, test, err := data.Load("adult", data.Config{TrainN: 60, TestN: 60, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fl.Config{
		Algorithm: fl.FedAvg, Rounds: 1, LocalEpochs: 1, BatchSize: 32,
		LR: 0.05, Seed: 5, ChunkSize: 64, ChunkWindow: 2, FoldAhead: 4,
	}
	cfg, err = cfg.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := data.Model("adult")

	const parties = 3
	const partyN = 100
	tau := fl.PredictTau(cfg, partyN)
	conns := make([]*CountingConn, parties)
	release := make(chan struct{})
	sent := make(chan int, parties)
	var wg sync.WaitGroup
	for i := 0; i < parties; i++ {
		serverSide, partySide := Pipe()
		conns[i] = NewCountingConn(serverSide)
		wg.Add(1)
		go func(i int, conn Conn) {
			defer wg.Done()
			hello, err := Marshal(HelloMsg{ID: i, N: partyN, LabelDist: []float64{0.5, 0.5}})
			if err != nil {
				t.Errorf("party %d hello marshal: %v", i, err)
				return
			}
			if err := conn.Send(hello); err != nil {
				t.Errorf("party %d hello: %v", i, err)
				return
			}
			// Read the round broadcast far enough to learn the round and
			// the stream geometry. Pipes intern the broadcast into a
			// single GlobalRefMsg descriptor; chunked frames are handled
			// too so the script is transport-agnostic.
			var round, total int
			for {
				raw, err := conn.Recv()
				if err != nil {
					t.Errorf("party %d downlink: %v", i, err)
					return
				}
				if len(raw) > 0 && raw[0] == msgGlobalChunk {
					m, _, err := decodeGlobalFrameInto(raw, nil)
					if err != nil {
						t.Errorf("party %d downlink frame: %v", i, err)
						return
					}
					round, total = m.Round, m.Total
					if m.Last {
						break
					}
					continue
				}
				msg, err := Unmarshal(raw)
				if err != nil {
					t.Errorf("party %d downlink decode: %v", i, err)
					return
				}
				ref, ok := msg.(GlobalRefMsg)
				if !ok {
					t.Errorf("party %d: unexpected downlink message %T", i, msg)
					return
				}
				g, err := takeGlobalRef(conn, ref)
				if err != nil {
					t.Errorf("party %d ref: %v", i, err)
					return
				}
				round, total = g.Round, len(g.State)+len(g.Control)
				break
			}
			if i == 0 {
				<-release // the straggler: withhold the entire reply
			}
			zero := make([]float64, cfg.ChunkSize)
			for off := 0; off < total; off += cfg.ChunkSize {
				chunk := zero
				if off+len(chunk) > total {
					chunk = zero[:total-off]
				}
				b, err := Marshal(UpdateChunkMsg{
					Round: round, Offset: off, Total: total,
					N: partyN, Tau: tau,
					Last:  off+len(chunk) == total,
					Chunk: chunk,
				})
				if err != nil {
					t.Errorf("party %d frame marshal: %v", i, err)
					return
				}
				if err := conn.Send(b); err != nil {
					t.Errorf("party %d uplink: %v", i, err)
					return
				}
			}
			sent <- i
			// Drain until the server's shutdown/close so the teardown
			// broadcast is always deliverable.
			for {
				if _, err := conn.Recv(); err != nil {
					return
				}
			}
		}(i, partySide)
	}

	fed := &Federation{Cfg: cfg, Spec: cfg.ResolveSpec(spec), Test: test, conns: conns, local: true}
	type serveResult struct {
		res *fl.Result
		err error
	}
	resCh := make(chan serveResult, 1)
	go func() {
		res, err := fed.serve(parties)
		resCh <- serveResult{res, err}
	}()

	// Both non-stragglers must complete their entire uplink while party 0
	// still withholds its reply.
	for k := 0; k < 2; k++ {
		select {
		case id := <-sent:
			if id == 0 {
				t.Fatal("straggler reported completion before release")
			}
		case <-time.After(30 * time.Second):
			t.Fatal("fast parties blocked behind the straggler: fold-ahead staging regressed to the serial drain")
		}
	}
	close(release)

	sr := <-resCh
	wg.Wait()
	if sr.err != nil {
		t.Fatal(sr.err)
	}
	if len(sr.res.Curve) != cfg.Rounds {
		t.Fatalf("completed %d/%d rounds", len(sr.res.Curve), cfg.Rounds)
	}
	for _, m := range sr.res.Curve {
		if len(m.Dropped) != 0 {
			t.Fatalf("round %d dropped %v", m.Round, m.Dropped)
		}
	}
}

// TestAsyncQuorumErrorBelowMinParties is the async quorum regression
// test: a federation that sinks below Config.MinParties while some
// parties remain alive must abort with the same typed *fl.QuorumError
// the synchronous engine raises — previously the async loop only watched
// for the all-dead case and would sit in the watchdog forever on a
// half-dead federation. Three scripted parties hello; one closes its
// connection, the other two stay connected but idle, and the server must
// fail loudly after the quorum retry budget.
func TestAsyncQuorumErrorBelowMinParties(t *testing.T) {
	_, test, err := data.Load("adult", data.Config{TrainN: 60, TestN: 60, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fl.Config{
		Algorithm: fl.FedAvg, Rounds: 5, LocalEpochs: 1, BatchSize: 32,
		LR: 0.05, Seed: 5, ChunkSize: 64, AsyncBuffer: 2,
		MinParties: 3, QuorumRetries: 5, QuorumRetryWait: 10 * time.Millisecond,
	}
	cfg, err = cfg.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := data.Model("adult")

	const parties = 3
	conns := make([]*CountingConn, parties)
	var wg sync.WaitGroup
	for i := 0; i < parties; i++ {
		serverSide, partySide := Pipe()
		conns[i] = NewCountingConn(serverSide)
		wg.Add(1)
		go func(i int, conn Conn) {
			defer wg.Done()
			hello, err := Marshal(HelloMsg{ID: i, N: 100, LabelDist: []float64{0.5, 0.5}})
			if err != nil {
				t.Errorf("party %d hello marshal: %v", i, err)
				return
			}
			if err := conn.Send(hello); err != nil {
				t.Errorf("party %d hello: %v", i, err)
				return
			}
			if i == 2 {
				// The deserter: read one downlink frame, then vanish.
				_, _ = conn.Recv()
				_ = conn.Close()
				return
			}
			// The survivors drain but never reply, so the generation
			// cannot advance and only the quorum check can end the run.
			// Like a real party, each closes its end on the server's
			// goodbye — the async teardown waits for exactly that.
			for {
				raw, err := conn.Recv()
				if err != nil || (len(raw) > 0 && raw[0] == msgShutdown) {
					_ = conn.Close()
					return
				}
			}
		}(i, partySide)
	}

	fed := &Federation{Cfg: cfg, Spec: cfg.ResolveSpec(spec), Test: test, conns: conns, local: true}
	_, serveErr := fed.serve(parties)
	wg.Wait()
	if serveErr == nil {
		t.Fatal("half-dead federation below MinParties completed without error")
	}
	var qe *fl.QuorumError
	if !errors.As(serveErr, &qe) {
		t.Fatalf("error %v (%T), want a *fl.QuorumError", serveErr, serveErr)
	}
	if qe.Live != 2 || qe.Min != 3 {
		t.Fatalf("QuorumError live=%d min=%d, want 2/3", qe.Live, qe.Min)
	}
	if qe.Attempts != cfg.QuorumRetries {
		t.Fatalf("QuorumError attempts=%d, want the full budget %d", qe.Attempts, cfg.QuorumRetries)
	}
}

// TestAsyncTCPFairnessFastParty runs the fairness cap end to end: one
// party dials clean while the other three push every frame through a
// per-frame latency plan, making party 0 roughly an order of magnitude
// faster per round trip. With 4 live parties and a 2-deep buffer the
// fair-share cap is 1, so no generation may fold the same party twice —
// the monopoly the cap exists to prevent — and the run must still meet
// the exact fold accounting.
func TestAsyncTCPFairnessFastParty(t *testing.T) {
	const parties = 4
	train, test, err := data.Load("adult", data.Config{TrainN: 400, TestN: 120, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	_, locals, err := partition.Strategy{Kind: partition.Homogeneous}.Split(train, parties, rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	cfg := fl.Config{
		Algorithm: fl.FedAvg, Rounds: 4, LocalEpochs: 1, BatchSize: 32,
		LR: 0.05, Seed: 5, ChunkSize: 512, AsyncBuffer: 2,
	}
	slow := &FaultPlan{Seed: 23, Latency: 3 * time.Millisecond, Jitter: 2 * time.Millisecond}
	res, partyErrs := runAsyncTCP(t, cfg, locals, test, func(i int) *FaultPlan {
		if i == 0 {
			return nil
		}
		return slow
	})
	for i, err := range partyErrs {
		if err != nil {
			t.Fatalf("party %d: %v", i, err)
		}
	}
	assertAsyncInvariants(t, res, cfg, parties)
	for _, m := range res.Curve {
		seen := map[int]int{}
		for _, id := range m.Sampled {
			if seen[id]++; seen[id] > 1 {
				t.Fatalf("generation %d folded party %d twice: %v — fair-share cap regressed", m.Round, id, m.Sampled)
			}
		}
	}
	t.Logf("fairness drops under a 10x-fast party: %d", res.Async.FairnessDropped)
}
