package simnet

import (
	"fmt"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/partition"
	"github.com/niid-bench/niidbench/internal/rng"
)

func TestCodecRoundTripUpdateChunk(t *testing.T) {
	in := UpdateChunkMsg{Round: 9, Offset: 128, Total: 131, N: 55, Tau: 4,
		Last: true, TrainLoss: 0.75, Chunk: []float64{1.5, -2, 3}}
	b, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	got := out.(UpdateChunkMsg)
	if got.Round != 9 || got.Offset != 128 || got.Total != 131 || got.N != 55 ||
		got.Tau != 4 || !got.Last || got.TrainLoss != 0.75 || len(got.Chunk) != 3 || got.Chunk[1] != -2 {
		t.Fatalf("round trip: %+v", got)
	}
	// The pooled-decode path must land in the caller's buffer.
	buf := make([]float64, 8)
	got2, err := UnmarshalChunkInto(b, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &got2.Chunk[0] != &buf[0] {
		t.Fatal("UnmarshalChunkInto did not reuse the caller's buffer")
	}
	if got2.Chunk[2] != 3 {
		t.Fatalf("pooled decode: %+v", got2)
	}
	if _, err := UnmarshalChunkInto([]byte{msgGlobalChunk, 0}, buf); err == nil {
		t.Fatal("UnmarshalChunkInto should reject non-chunk messages")
	}
}

func TestCodecRoundTripHelloToken(t *testing.T) {
	in := HelloMsg{ID: 3, N: 200, Token: "s3cr3t", LabelDist: []float64{0.25, 0.75}}
	b, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	got := out.(HelloMsg)
	if got.ID != 3 || got.N != 200 || got.Token != "s3cr3t" || len(got.LabelDist) != 2 {
		t.Fatalf("round trip: %+v", got)
	}
	long := make([]byte, maxTokenLen+1)
	if _, err := Marshal(HelloMsg{Token: string(long)}); err == nil {
		t.Fatal("oversized token should fail to marshal")
	}
}

func TestCodecChunkTruncations(t *testing.T) {
	msg, err := Marshal(UpdateChunkMsg{Round: 1, Offset: 2, Total: 5, N: 4, Tau: 3,
		TrainLoss: 0.5, Chunk: []float64{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(msg); cut++ {
		if _, err := Unmarshal(msg[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d decoded successfully", cut, len(msg))
		}
	}
}

// jitterConn delays every send by a pseudo-random few hundred
// microseconds, so concurrent parties' chunk frames interleave thoroughly
// on the server even when local training is fast.
type jitterConn struct {
	Conn
	r *rng.RNG
}

func (j *jitterConn) Send(b []byte) error {
	time.Sleep(time.Duration(j.r.Intn(400)) * time.Microsecond)
	return j.Conn.Send(b)
}

// TestChunkedTCPOutOfOrderMatchesPipes runs the same chunked federation
// twice — over in-memory pipes and over TCP with per-party send jitter
// forcing heavy cross-party interleaving of chunk frames — and demands
// bitwise-identical final states. The fold must be deterministic in
// sampled order no matter how frames arrive; run with -race this is also
// the concurrency regression test for the chunked receive path. Measured
// CommBytes must match too: the pipes' interned broadcast is charged the
// exact size of the frames TCP serializes.
func TestChunkedTCPOutOfOrderMatchesPipes(t *testing.T) {
	cfg, locals, test := smallFederation(t)
	cfg.Algorithm = fl.Scaffold // exercises the two-vector stream
	cfg.Rounds = 3
	cfg.ChunkSize = 37 // tiny frames => many interleavings
	spec, _ := data.Model("adult")

	viaPipes, err := RunLocal(cfg, spec, locals, test)
	if err != nil {
		t.Fatal(err)
	}

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
			c, err := net.Dial("tcp", addr)
			if err != nil {
				t.Errorf("party %d dial: %v", i, err)
				return
			}
			defer c.Close()
			conn := &jitterConn{Conn: NewTCPConn(c), r: rng.New(uint64(900 + i))}
			// Same party seeds as RunLocal, so the trained updates are
			// bitwise identical and only the transport differs.
			if err := ServeParty(conn, i, ds, spec, cfg, cfg.Seed+uint64(i)*7919+13, ""); err != nil {
				t.Errorf("party %d: %v", i, err)
			}
		}(i, ds)
	}
	sr := <-resCh
	wg.Wait()
	if sr.err != nil {
		t.Fatal(sr.err)
	}
	if len(sr.res.FinalState) != len(viaPipes.FinalState) {
		t.Fatalf("state length %d vs %d", len(sr.res.FinalState), len(viaPipes.FinalState))
	}
	for i := range viaPipes.FinalState {
		if sr.res.FinalState[i] != viaPipes.FinalState[i] {
			t.Fatalf("state[%d]: tcp %v vs pipes %v", i, sr.res.FinalState[i], viaPipes.FinalState[i])
		}
	}
	for r := range viaPipes.Curve {
		if sr.res.Curve[r].TrainLoss != viaPipes.Curve[r].TrainLoss {
			t.Fatalf("round %d: loss tcp %v vs pipes %v", r, sr.res.Curve[r].TrainLoss, viaPipes.Curve[r].TrainLoss)
		}
		if sr.res.Curve[r].CommBytes != viaPipes.Curve[r].CommBytes {
			t.Fatalf("round %d: CommBytes tcp %d vs pipes %d", r, sr.res.Curve[r].CommBytes, viaPipes.Curve[r].CommBytes)
		}
	}
}

// TestChunkedMatchesWholeOverPipes pins end-to-end bit-identity of the
// wire chunking itself: the same federation at ChunkSize 0 (each vector
// one frame) and with many small frames must produce identical state
// trajectories, the small frames costing more header bytes.
func TestChunkedMatchesWholeOverPipes(t *testing.T) {
	cfg, locals, test := smallFederation(t)
	cfg.Rounds = 3
	spec, _ := data.Model("adult")
	whole, err := RunLocal(cfg, spec, locals, test)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ChunkSize = 101
	chunked, err := RunLocal(cfg, spec, locals, test)
	if err != nil {
		t.Fatal(err)
	}
	for i := range whole.FinalState {
		if whole.FinalState[i] != chunked.FinalState[i] {
			t.Fatalf("state[%d]: whole %v vs chunked %v", i, whole.FinalState[i], chunked.FinalState[i])
		}
	}
	if chunked.TotalCommBytes <= whole.TotalCommBytes {
		t.Fatalf("smaller frames should cost slightly more wire bytes: %d vs %d",
			chunked.TotalCommBytes, whole.TotalCommBytes)
	}
}

// rawParty connects a scripted protocol peer: hello, then a custom reply
// per round — used to inject malformed traffic.
func rawParty(t *testing.T, conn Conn, hello HelloMsg, reply func(round int, g GlobalMsg) error) {
	t.Helper()
	b, err := Marshal(hello)
	if err != nil {
		t.Errorf("rawParty marshal: %v", err)
		return
	}
	if err := conn.Send(b); err != nil {
		t.Errorf("rawParty hello: %v", err)
		return
	}
	for {
		raw, err := conn.Recv()
		if err != nil {
			return // server closed us (or shut down)
		}
		msg, err := Unmarshal(raw)
		if err != nil {
			return
		}
		m, ok := msg.(GlobalRefMsg)
		if !ok {
			return // shutdown
		}
		// Interned pipe broadcast: resolve the shared buffer like a real
		// party would.
		g, err := takeGlobalRef(conn, m)
		if err != nil {
			t.Errorf("rawParty ref: %v", err)
			return
		}
		if err := reply(g.Round, g); err != nil {
			return
		}
	}
}

// TestMalformedChunkStreamDropsParty wires two honest parties and one
// that streams overlapping chunk offsets every round. The malformed
// stream must cost only that party: every round completes from the
// survivors, reports the rogue in Dropped, and the final state is finite.
func TestMalformedChunkStreamDropsParty(t *testing.T) {
	train, test, err := data.Load("adult", data.Config{TrainN: 600, TestN: 200, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	_, locals, err := partition.Strategy{Kind: partition.Homogeneous}.Split(train, 2, rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := data.Model("adult")
	cfg := fl.Config{Algorithm: fl.FedAvg, Rounds: 3, LocalEpochs: 1, BatchSize: 32,
		LR: 0.05, Seed: 5, ChunkSize: 64}
	cfg, err = cfg.Normalize()
	if err != nil {
		t.Fatal(err)
	}

	const parties = 3
	const rogue = 2
	conns := make([]*CountingConn, parties)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		serverSide, partySide := Pipe()
		conns[i] = NewCountingConn(serverSide)
		wg.Add(1)
		go func(i int, conn Conn) {
			defer wg.Done()
			if err := ServeParty(conn, i, locals[i], spec, cfg, cfg.Seed+uint64(i), ""); err != nil {
				t.Errorf("party %d: %v", i, err)
			}
		}(i, partySide)
	}
	serverSide, rogueSide := Pipe()
	conns[rogue] = NewCountingConn(serverSide)
	rogueN := 100
	rogueTau := fl.PredictTau(cfg, rogueN)
	wg.Add(1)
	go func() {
		defer wg.Done()
		rawParty(t, rogueSide, HelloMsg{ID: rogue, N: rogueN, LabelDist: []float64{0.5, 0.5}},
			func(round int, g GlobalMsg) error {
				total := len(g.State)
				junk := make([]float64, 64)
				frames := []UpdateChunkMsg{
					{Round: round, Offset: 0, Total: total, N: rogueN, Tau: rogueTau, Chunk: junk},
					// Overlapping offset: must be rejected and the party dropped.
					{Round: round, Offset: 32, Total: total, N: rogueN, Tau: rogueTau, Chunk: junk, Last: 96 == total},
					{Round: round, Offset: total - 64, Total: total, N: rogueN, Tau: rogueTau, Chunk: junk, Last: true},
				}
				for _, f := range frames {
					b, err := Marshal(f)
					if err != nil {
						return err
					}
					if err := rogueSide.Send(b); err != nil {
						return err
					}
				}
				return nil
			})
	}()

	fed := &Federation{Cfg: cfg, Spec: cfg.ResolveSpec(spec), Test: test, conns: conns, local: true}
	res, err := fed.serve(parties)
	wg.Wait()
	if err != nil {
		t.Fatalf("federation should survive a malformed stream: %v", err)
	}
	if len(res.Curve) != cfg.Rounds {
		t.Fatalf("rounds: %d", len(res.Curve))
	}
	assertEvictedAt(t, res.Curve, rogue, 0)
	for i, v := range res.FinalState {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("state[%d] = %v after dropped rounds", i, v)
		}
	}
	if res.FinalAccuracy < 0.55 {
		t.Fatalf("survivor-only federation should still learn: accuracy %v", res.FinalAccuracy)
	}
}

// assertEvictedAt asserts the membership contract around a mid-round
// violation: the offender is dropped in the round that caught it, and —
// sampling being liveness-aware — excluded from every later round's
// sample instead of being re-dropped round after round.
func assertEvictedAt(t *testing.T, curve []fl.RoundMetrics, id, evictRound int) {
	t.Helper()
	found := false
	for _, d := range curve[evictRound].Dropped {
		found = found || d == id
	}
	if !found {
		t.Fatalf("round %d did not drop party %d (dropped=%v)", evictRound, id, curve[evictRound].Dropped)
	}
	for _, m := range curve[evictRound+1:] {
		for _, s := range m.Sampled {
			if s == id {
				t.Fatalf("round %d sampled party %d after its eviction", m.Round, id)
			}
		}
	}
}

// TestHandshakeHardening connects a parade of invalid clients — garbage
// hello, out-of-range ID, wrong token, duplicate ID — before and among
// the legitimate parties. Each invalid connection must be rejected on its
// own; the federation completes once the real parties arrive.
func TestHandshakeHardening(t *testing.T) {
	cfg, locals, test := smallFederation(t)
	cfg.Rounds = 2
	spec, _ := data.Model("adult")
	const token = "hunter2"

	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ln.Token = token
	var mu sync.Mutex
	var rejections []error
	ln.OnReject = func(err error) {
		mu.Lock()
		rejections = append(rejections, err)
		mu.Unlock()
	}
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

	dialRaw := func(payload []byte) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Errorf("rogue dial: %v", err)
			return
		}
		conn := NewTCPConn(c)
		_ = conn.Send(payload)
		// The server must close us; wait for it so the rejection is
		// registered before the test asserts.
		_, _ = conn.Recv()
		_ = conn.Close()
	}
	garbage := []byte{0xde, 0xad, 0xbe, 0xef}
	outOfRange, _ := Marshal(HelloMsg{ID: 99, N: 10, Token: token, LabelDist: []float64{1}})
	badToken, _ := Marshal(HelloMsg{ID: 0, N: 10, Token: "wrong", LabelDist: []float64{1}})

	dialRaw(garbage)
	dialRaw(outOfRange)
	dialRaw(badToken)

	var wg sync.WaitGroup
	for i, ds := range locals {
		wg.Add(1)
		go func(i int, ds *data.Dataset) {
			defer wg.Done()
			if err := DialParty(addr, i, ds, spec, cfg, uint64(300+i), token); err != nil {
				t.Errorf("party %d: %v", i, err)
			}
		}(i, ds)
	}
	sr := <-resCh
	wg.Wait()
	if sr.err != nil {
		t.Fatal(sr.err)
	}
	if sr.res.FinalAccuracy < 0.55 {
		t.Fatalf("federation accuracy %v", sr.res.FinalAccuracy)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(rejections) < 3 {
		t.Fatalf("expected at least 3 rejections (garbage, range, token), got %v", rejections)
	}
}

// TestRecvLimitRejectsBeforeRead pins the pre-read frame bound: a TCP
// frame whose length prefix exceeds the configured limit must be refused
// without reading (or allocating) its body.
func TestRecvLimitRejectsBeforeRead(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	recv := NewTCPConn(a)
	recv.(*tcpConn).SetRecvLimit(50)
	done := make(chan error, 1)
	go func() {
		_, err := recv.Recv()
		done <- err
	}()
	// Write only the 4-byte header declaring a frame far above the limit;
	// if Recv waited for the body this would deadlock, proving it streams
	// the allocation — rejection must come from the header alone.
	var hdr [4]byte
	hdr[0], hdr[1], hdr[2], hdr[3] = 0xff, 0xff, 0xff, 0x0f
	if _, err := b.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("oversized frame declaration was accepted")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not reject the oversized declaration from the header")
	}
	// Within the limit still works.
	recv2 := NewTCPConn(b)
	go func() {
		if err := NewTCPConn(a).(*tcpConn).Send([]byte("ok")); err != nil {
			t.Error(err)
		}
	}()
	msg, err := recv2.Recv()
	if err != nil || string(msg) != "ok" {
		t.Fatalf("in-limit frame: %q %v", msg, err)
	}
}

// TestOversizedChunkFrameDropsParty sends the whole update as one giant
// frame despite a small negotiated chunk size. The memory contract must
// hold: the frame is rejected and the party dropped, not buffered.
func TestOversizedChunkFrameDropsParty(t *testing.T) {
	train, test, err := data.Load("adult", data.Config{TrainN: 400, TestN: 150, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	_, locals, err := partition.Strategy{Kind: partition.Homogeneous}.Split(train, 2, rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := data.Model("adult")
	cfg, err := fl.Config{Algorithm: fl.FedAvg, Rounds: 2, LocalEpochs: 1, BatchSize: 32,
		LR: 0.05, Seed: 5, ChunkSize: 64}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	const parties = 3
	const rogue = 2
	conns := make([]*CountingConn, parties)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		serverSide, partySide := Pipe()
		conns[i] = NewCountingConn(serverSide)
		wg.Add(1)
		go func(i int, conn Conn) {
			defer wg.Done()
			if err := ServeParty(conn, i, locals[i], spec, cfg, cfg.Seed+uint64(i), ""); err != nil {
				t.Errorf("party %d: %v", i, err)
			}
		}(i, partySide)
	}
	serverSide, rogueSide := Pipe()
	conns[rogue] = NewCountingConn(serverSide)
	rogueN := 50
	rogueTau := fl.PredictTau(cfg, rogueN)
	wg.Add(1)
	go func() {
		defer wg.Done()
		rawParty(t, rogueSide, HelloMsg{ID: rogue, N: rogueN, LabelDist: []float64{0.5, 0.5}},
			func(round int, g GlobalMsg) error {
				total := len(g.State)
				b, err := Marshal(UpdateChunkMsg{Round: round, Offset: 0, Total: total,
					N: rogueN, Tau: rogueTau, Last: true, Chunk: make([]float64, total)})
				if err != nil {
					return err
				}
				return rogueSide.Send(b)
			})
	}()
	fed := &Federation{Cfg: cfg, Spec: cfg.ResolveSpec(spec), Test: test, conns: conns, local: true}
	res, err := fed.serve(parties)
	wg.Wait()
	if err != nil {
		t.Fatalf("federation should survive an oversized frame: %v", err)
	}
	assertEvictedAt(t, res.Curve, rogue, 0)
}

// TestRoundTimeoutEvictsSilentParty admits a party that hellos correctly
// and then never replies to any round. With RoundTimeout set, the server
// must evict it instead of wedging the round forever.
func TestRoundTimeoutEvictsSilentParty(t *testing.T) {
	cfg, locals, test := smallFederation(t)
	cfg.Rounds = 2
	cfg.ChunkSize = 128
	spec, _ := data.Model("adult")
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// Generous against race-detector slowdowns: honest parties train in
	// tens of milliseconds; only the mute one should ever hit this.
	ln.RoundTimeout = 1500 * time.Millisecond
	addr := ln.Addr()
	const parties = 4 // 3 honest + 1 mute
	type serveResult struct {
		res *fl.Result
		err error
	}
	resCh := make(chan serveResult, 1)
	go func() {
		res, err := ln.AcceptAndRun(parties, cfg, spec, test)
		resCh <- serveResult{res, err}
	}()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Errorf("mute dial: %v", err)
			return
		}
		defer c.Close()
		conn := NewTCPConn(c)
		b, _ := Marshal(HelloMsg{ID: 3, N: 40, LabelDist: []float64{0.5, 0.5}})
		if err := conn.Send(b); err != nil {
			t.Errorf("mute hello: %v", err)
			return
		}
		// Read broadcasts but never reply; stop when the server closes us.
		for {
			if _, err := conn.Recv(); err != nil {
				return
			}
		}
	}()
	for i, ds := range locals {
		wg.Add(1)
		go func(i int, ds *data.Dataset) {
			defer wg.Done()
			if err := DialParty(addr, i, ds, spec, cfg, uint64(500+i), ""); err != nil {
				t.Errorf("party %d: %v", i, err)
			}
		}(i, ds)
	}
	sr := <-resCh
	wg.Wait()
	if sr.err != nil {
		t.Fatalf("federation should survive a mute party: %v", sr.err)
	}
	assertEvictedAt(t, sr.res.Curve, 3, 0)
	if sr.res.FinalAccuracy < 0.55 {
		t.Fatalf("accuracy %v", sr.res.FinalAccuracy)
	}
}

// TestDeadPartyEvictedNotFatal kills one party after its first-round
// reply. The federation must evict it — no broadcast to the dead conn, no
// second receiver, no abort — and complete every remaining round from the
// survivors, at a small chunk size and at ChunkSize 0 alike.
func TestDeadPartyEvictedNotFatal(t *testing.T) {
	train, test, err := data.Load("adult", data.Config{TrainN: 600, TestN: 200, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	_, locals, err := partition.Strategy{Kind: partition.Homogeneous}.Split(train, 2, rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := data.Model("adult")
	for _, chunk := range []int{64, 0} {
		t.Run(fmt.Sprintf("chunk=%d", chunk), func(t *testing.T) {
			cfg, err := fl.Config{Algorithm: fl.FedAvg, Rounds: 4, LocalEpochs: 1, BatchSize: 32,
				LR: 0.05, Seed: 5, ChunkSize: chunk}.Normalize()
			if err != nil {
				t.Fatal(err)
			}

			const parties = 3
			const mortal = 2
			conns := make([]*CountingConn, parties)
			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				serverSide, partySide := Pipe()
				conns[i] = NewCountingConn(serverSide)
				wg.Add(1)
				go func(i int, conn Conn) {
					defer wg.Done()
					if err := ServeParty(conn, i, locals[i], spec, cfg, cfg.Seed+uint64(i), ""); err != nil {
						t.Errorf("party %d: %v", i, err)
					}
				}(i, partySide)
			}
			serverSide, mortalSide := Pipe()
			conns[mortal] = NewCountingConn(serverSide)
			mortalN := 80
			mortalTau := fl.PredictTau(cfg, mortalN)
			wg.Add(1)
			go func() {
				defer wg.Done()
				rawParty(t, mortalSide, HelloMsg{ID: mortal, N: mortalN, LabelDist: []float64{0.5, 0.5}},
					func(round int, g GlobalMsg) error {
						if round > 0 {
							return mortalSide.Close() // die after round 0
						}
						// A fully valid zero-delta stream for round 0, framed
						// at the server's chunk size.
						total := len(g.State)
						return fl.ChunkStream(make([]float64, total), nil, g.Chunk, func(off int, c []float64) error {
							b, err := Marshal(UpdateChunkMsg{Round: round, Offset: off, Total: total,
								N: mortalN, Tau: mortalTau, TrainLoss: 0.5,
								Last: off+len(c) == total, Chunk: c})
							if err != nil {
								return err
							}
							return mortalSide.Send(b)
						})
					})
			}()

			fed := &Federation{Cfg: cfg, Spec: cfg.ResolveSpec(spec), Test: test, conns: conns, local: true}
			res, err := fed.serve(parties)
			wg.Wait()
			if err != nil {
				t.Fatalf("federation should survive a party death: %v", err)
			}
			if len(res.Curve) != cfg.Rounds {
				t.Fatalf("rounds: %d", len(res.Curve))
			}
			for _, m := range res.Curve[0].Dropped {
				if m == mortal {
					t.Fatal("round 0 should not drop the still-alive party")
				}
			}
			assertEvictedAt(t, res.Curve, mortal, 1)
		})
	}
}

// TestSilentHelloTimesOut connects a client that never sends its hello:
// admission must reject it after HelloTimeout instead of hanging the
// accept loop, and the federation completes once real parties connect.
func TestSilentHelloTimesOut(t *testing.T) {
	cfg, locals, test := smallFederation(t)
	cfg.Rounds = 2
	spec, _ := data.Model("adult")
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ln.HelloTimeout = 150 * time.Millisecond
	var mu sync.Mutex
	var rejections []error
	ln.OnReject = func(err error) {
		mu.Lock()
		rejections = append(rejections, err)
		mu.Unlock()
	}
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

	silent, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	// Give the accept loop time to pick up the silent conn first, so the
	// rejection is deterministic (loopback accepts are FIFO).
	time.Sleep(50 * time.Millisecond)

	var wg sync.WaitGroup
	for i, ds := range locals {
		wg.Add(1)
		go func(i int, ds *data.Dataset) {
			defer wg.Done()
			if err := DialParty(addr, i, ds, spec, cfg, uint64(400+i), ""); err != nil {
				t.Errorf("party %d: %v", i, err)
			}
		}(i, ds)
	}
	sr := <-resCh
	wg.Wait()
	if sr.err != nil {
		t.Fatal(sr.err)
	}
	if sr.res.FinalAccuracy < 0.55 {
		t.Fatalf("accuracy %v", sr.res.FinalAccuracy)
	}
	// Hellos are read concurrently, so admission no longer waits out the
	// silent conn's timeout — that head-of-line freedom is the point. The
	// rejection is still delivered before AcceptAndRun returns: the
	// mid-hello conn is expired the moment the federation fills.
	mu.Lock()
	defer mu.Unlock()
	if len(rejections) == 0 {
		t.Fatal("the silent connection was never rejected")
	}
}

// TestAdmitRejectsDuplicateAndRange drives the admission check directly:
// a second hello claiming an already-admitted ID, and IDs outside
// [0, NumParties), must each cost only their own connection.
func TestAdmitRejectsDuplicateAndRange(t *testing.T) {
	fed := &Federation{Cfg: fl.Config{LocalEpochs: 1, BatchSize: 32}}
	fed.initParties(2)
	sendHello := func(h HelloMsg) *CountingConn {
		serverSide, partySide := Pipe()
		b, err := Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		if err := partySide.Send(b); err != nil {
			t.Fatal(err)
		}
		return NewCountingConn(serverSide)
	}
	if err := fed.admit(sendHello(HelloMsg{ID: 0, N: 10, LabelDist: []float64{1}}), 2); err != nil {
		t.Fatal(err)
	}
	if err := fed.admit(sendHello(HelloMsg{ID: 0, N: 10, LabelDist: []float64{1}}), 2); err == nil {
		t.Fatal("duplicate ID should be rejected")
	}
	if err := fed.admit(sendHello(HelloMsg{ID: 2, N: 10, LabelDist: []float64{1}}), 2); err == nil {
		t.Fatal("out-of-range ID should be rejected")
	}
	if err := fed.admit(sendHello(HelloMsg{ID: -1, N: 10, LabelDist: []float64{1}}), 2); err == nil {
		t.Fatal("negative ID should be rejected")
	}
	if err := fed.admit(sendHello(HelloMsg{ID: 1, N: 10, LabelDist: []float64{math.NaN(), math.Inf(1), -3}}), 2); err != nil {
		t.Fatal(err)
	}
	for _, v := range fed.dists[1] {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Fatalf("admitted label distribution not sanitized: %v", fed.dists[1])
		}
	}
}

// TestEmptyPartyStratifiedNoNaN is the transport-level regression test
// for the empty-dataset weighting bug: a party with zero samples joins a
// stratified-sampling federation, its all-zero label distribution forms
// its own cluster (so it is sampled every round), and the run must
// complete with finite state — previously the weighting path could go
// NaN off the hello's N=0.
func TestEmptyPartyStratifiedNoNaN(t *testing.T) {
	train, test, err := data.Load("adult", data.Config{TrainN: 600, TestN: 200, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	_, locals, err := partition.Strategy{Kind: partition.Homogeneous}.Split(train, 3, rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	empty := &data.Dataset{
		Name: "empty", FeatLen: locals[0].FeatLen,
		SampleShape: locals[0].SampleShape, NumClasses: locals[0].NumClasses,
	}
	locals = append(locals, empty)
	spec, _ := data.Model("adult")
	cfg := fl.Config{
		Algorithm: fl.FedNova, Rounds: 3, LocalEpochs: 1, BatchSize: 32,
		LR: 0.05, Seed: 5, SampleFraction: 0.5, Sampling: fl.SampleStratified,
		ChunkSize: 128,
	}
	res, err := RunLocal(cfg, spec, locals, test)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.FinalState {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("state[%d] = %v with an empty party in the federation", i, v)
		}
	}
	if res.FinalAccuracy < 0.55 {
		t.Fatalf("accuracy %v", res.FinalAccuracy)
	}
}
