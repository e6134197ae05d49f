package simnet

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/partition"
	"github.com/niid-bench/niidbench/internal/rng"
)

func TestCodecVersionedHello(t *testing.T) {
	b, err := Marshal(HelloMsg{ID: 2, N: 10, Token: "t", LabelDist: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	if b[1] != protoMagic || b[2] != ProtoVersion {
		t.Fatalf("hello preamble % x, want magic 0x%02x version %d", b[:3], protoMagic, ProtoVersion)
	}
	out, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	h := out.(HelloMsg)
	if h.Version != ProtoVersion || h.ID != 2 || h.N != 10 || h.Token != "t" {
		t.Fatalf("round trip: %+v", h)
	}

	// A wrong magic byte must be a descriptive error — a pre-versioning
	// hello began with the party ID, whose low byte is a small integer,
	// so it can never alias the magic.
	bad := append([]byte{}, b...)
	bad[1] = 0x03
	if _, err := Unmarshal(bad); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic decoded as: %v", err)
	}

	// A peer whose whole supported range is ahead of this build must
	// surface as a typed VersionError carrying the peer's range, not as a
	// misaligned decode of the fields behind it.
	stale, err := Marshal(HelloMsg{ID: 2, N: 10, Version: ProtoVersion + 9, MinVersion: ProtoVersion + 9})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Unmarshal(stale)
	var ve *VersionError
	if !errors.As(err, &ve) || ve.Got != ProtoVersion+9 || ve.GotMin != ProtoVersion+9 {
		t.Fatalf("stale version decoded as: %v", err)
	}
	if !strings.Contains(err.Error(), fmt.Sprint(ProtoVersion+9)) || !strings.Contains(err.Error(), fmt.Sprint(ProtoVersion)) {
		t.Fatalf("version error should name both versions: %v", err)
	}

	// Every truncation — including mid-preamble — errors cleanly.
	for cut := 0; cut < len(b); cut++ {
		if _, err := Unmarshal(b[:cut]); err == nil {
			t.Fatalf("hello truncation at %d/%d decoded successfully", cut, len(b))
		}
	}
}

// TestCodecVersionRangeMatrix sweeps hello version ranges across the
// admission boundary: overlap with [MinProtoVersion, ProtoVersion] (both
// 5) admits, no overlap rejects with a typed VersionError naming the
// peer's range — including every pre-v5 peer, which may still send the
// retired whole-message frames.
func TestCodecVersionRangeMatrix(t *testing.T) {
	if ProtoVersion != 5 || MinProtoVersion != 5 {
		t.Fatalf("protocol range [%d,%d], want [5,5]", MinProtoVersion, ProtoVersion)
	}
	cases := []struct {
		name    string
		v, minv byte
		admit   bool
	}{
		{"same generation", ProtoVersion, MinProtoVersion, true},
		{"one generation behind (pre-v5 peer)", ProtoVersion - 1, 2, false},
		{"future peer still speaking ours", ProtoVersion + 2, MinProtoVersion, true},
		{"future peer, overlap at our max", ProtoVersion + 5, ProtoVersion, true},
		{"future peer, no overlap", ProtoVersion + 2, ProtoVersion + 1, false},
		{"ancient peer", 2, 2, false},
		{"inverted range", ProtoVersion, ProtoVersion + 7, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, err := Marshal(HelloMsg{ID: 1, N: 10, Version: tc.v, MinVersion: tc.minv, LabelDist: []float64{1}})
			if err != nil {
				t.Fatal(err)
			}
			out, err := Unmarshal(b)
			if !tc.admit {
				var ve *VersionError
				if !errors.As(err, &ve) {
					t.Fatalf("range [%d,%d] decoded as: %v", tc.minv, tc.v, err)
				}
				if ve.Got != tc.v {
					t.Fatalf("rejection carries max %d, want %d", ve.Got, tc.v)
				}
				return
			}
			if err != nil {
				t.Fatalf("range [%d,%d] rejected: %v", tc.minv, tc.v, err)
			}
			h := out.(HelloMsg)
			if h.Version != tc.v || h.MinVersion != tc.minv {
				t.Fatalf("decoded range [%d,%d], want [%d,%d]", h.MinVersion, h.Version, tc.minv, tc.v)
			}
		})
	}
}

func TestCodecRoundTripGlobalChunk(t *testing.T) {
	in := GlobalChunkMsg{Round: 5, Offset: 37, Total: 100, CtrlLen: 20,
		Budget: 3, Chunk: 37, Last: true, Payload: []float64{1.5, -2, 3}}
	b, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	got := out.(GlobalChunkMsg)
	if got.Round != 5 || got.Offset != 37 || got.Total != 100 || got.CtrlLen != 20 ||
		got.Budget != 3 || got.Chunk != 37 || !got.Last ||
		len(got.Payload) != 3 || got.Payload[1] != -2 {
		t.Fatalf("round trip: %+v", got)
	}
	for cut := 0; cut < len(b); cut++ {
		if _, err := Unmarshal(b[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d decoded successfully", cut, len(b))
		}
	}
	// The party's in-place decode path must land in the caller's buffer.
	buf := make([]float64, 8)
	got2, codec, err := decodeGlobalFrameInto(b, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &got2.Payload[0] != &buf[0] || codec != wireCodecF64 {
		t.Fatal("decodeGlobalFrameInto did not reuse the caller's buffer")
	}
	if got2.Payload[2] != 3 {
		t.Fatalf("pooled decode: %+v", got2)
	}
	if _, _, err := decodeGlobalFrameInto([]byte{msgUpdateChunk, 0}, buf); err == nil {
		t.Fatal("decodeGlobalFrameInto should reject non-downlink messages")
	}
}

func TestCodecRoundTripGlobalRef(t *testing.T) {
	in := GlobalRefMsg{Round: 7, StateLen: 1000, CtrlLen: 40, Budget: 2, Chunk: 64}
	b, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.(GlobalRefMsg); got != in {
		t.Fatalf("round trip: %+v", got)
	}
	for cut := 0; cut < len(b); cut++ {
		if _, err := Unmarshal(b[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d decoded successfully", cut, len(b))
		}
	}
}

// TestVersionSkewRejectedAtAdmission connects peers speaking a stale
// protocol version, the wrong magic, and a hello truncated inside the
// version preamble. Each must be turned away with a clean, descriptive
// OnReject reason — never a misaligned decode or a hang — while the
// federation keeps waiting and completes once the real parties arrive.
func TestVersionSkewRejectedAtAdmission(t *testing.T) {
	cfg, locals, test := smallFederation(t)
	cfg.Rounds = 2
	spec, _ := data.Model("adult")

	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
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
			t.Errorf("skewed dial: %v", err)
			return
		}
		conn := NewTCPConn(c)
		_ = conn.Send(payload)
		// The server must close us; wait for it so the rejection is
		// registered before the test asserts.
		_, _ = conn.Recv()
		_ = conn.Close()
	}
	stale, err := Marshal(HelloMsg{ID: 0, N: 10, LabelDist: []float64{1}, Version: ProtoVersion + 41, MinVersion: ProtoVersion + 41})
	if err != nil {
		t.Fatal(err)
	}
	good, err := Marshal(HelloMsg{ID: 0, N: 10, LabelDist: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	badMagic := append([]byte{}, good...)
	badMagic[1] = 0x00
	truncated := good[:2] // tag + magic, version byte missing

	dialRaw(stale)
	dialRaw(badMagic)
	dialRaw(truncated)

	var wg sync.WaitGroup
	for i, ds := range locals {
		wg.Add(1)
		go func(i int, ds *data.Dataset) {
			defer wg.Done()
			if err := DialParty(addr, i, ds, spec, cfg, uint64(700+i), ""); err != nil {
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
		t.Fatalf("expected 3 rejections (stale, magic, truncated), got %v", rejections)
	}
	var sawVersion, sawMagic, sawTruncated bool
	for _, rej := range rejections {
		var ve *VersionError
		if errors.As(rej, &ve) {
			if ve.Got != ProtoVersion+41 {
				t.Fatalf("version rejection carries peer version %d, want %d", ve.Got, ProtoVersion+41)
			}
			sawVersion = true
		}
		if strings.Contains(rej.Error(), "magic") {
			sawMagic = true
		}
		if strings.Contains(rej.Error(), "preamble") {
			sawTruncated = true
		}
	}
	if !sawVersion || !sawMagic || !sawTruncated {
		t.Fatalf("rejection reasons not descriptive (version=%v magic=%v truncated=%v): %v",
			sawVersion, sawMagic, sawTruncated, rejections)
	}
}

// TestConcurrentAdmissionBoundedStall is the regression test for the
// head-of-line admission fix: k silent connections (plus a couple sending
// garbage) arrive ahead of the legitimate parties, and the federation
// must still admit and complete within a small multiple of ONE
// HelloTimeout. The pre-fix serial hello reads cost k timeouts before the
// first legitimate hello was even read.
func TestConcurrentAdmissionBoundedStall(t *testing.T) {
	train, test, err := data.Load("adult", data.Config{TrainN: 400, TestN: 150, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	_, locals, err := partition.Strategy{Kind: partition.Homogeneous}.Split(train, 3, rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := data.Model("adult")
	cfg := fl.Config{Algorithm: fl.FedAvg, Rounds: 1, LocalEpochs: 1, BatchSize: 32,
		LR: 0.05, Seed: 5, ChunkSize: 128}

	const helloTimeout = 750 * time.Millisecond
	const silent = 4
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ln.HelloTimeout = helloTimeout
	var mu sync.Mutex
	rejected := 0
	ln.OnReject = func(error) {
		mu.Lock()
		rejected++
		mu.Unlock()
	}
	addr := ln.Addr()

	start := time.Now()
	type serveResult struct {
		res *fl.Result
		err error
	}
	resCh := make(chan serveResult, 1)
	go func() {
		res, err := ln.AcceptAndRun(len(locals), cfg, spec, test)
		resCh <- serveResult{res, err}
	}()

	// The lurkers connect first and say nothing: each must burn its own
	// timeout without queueing anyone behind it.
	var lurkers []net.Conn
	defer func() {
		for _, c := range lurkers {
			_ = c.Close()
		}
	}()
	for i := 0; i < silent; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		lurkers = append(lurkers, c)
	}
	var rogueWG sync.WaitGroup
	for i := 0; i < 2; i++ {
		rogueWG.Add(1)
		go func() {
			defer rogueWG.Done()
			c, err := net.Dial("tcp", addr)
			if err != nil {
				t.Errorf("garbage dial: %v", err)
				return
			}
			conn := NewTCPConn(c)
			_ = conn.Send([]byte{0xde, 0xad, 0xbe, 0xef})
			_, _ = conn.Recv() // wait for the server to close us
			_ = conn.Close()
		}()
	}
	// Let the accept loop pick the lurkers up first, so the legitimate
	// parties genuinely arrive behind them.
	time.Sleep(50 * time.Millisecond)

	var wg sync.WaitGroup
	for i, ds := range locals {
		wg.Add(1)
		go func(i int, ds *data.Dataset) {
			defer wg.Done()
			if err := DialParty(addr, i, ds, spec, cfg, uint64(600+i), ""); err != nil {
				t.Errorf("party %d: %v", i, err)
			}
		}(i, ds)
	}
	sr := <-resCh
	elapsed := time.Since(start)
	wg.Wait()
	rogueWG.Wait()
	if sr.err != nil {
		t.Fatal(sr.err)
	}
	if sr.res.FinalAccuracy < 0.55 {
		t.Fatalf("accuracy %v", sr.res.FinalAccuracy)
	}
	// Serial hello reads would stall admission for silent*helloTimeout =
	// 3s before the first legitimate hello; concurrent reads bound the
	// aggregate stall by one timeout. 3x budgets generously for training
	// and race-detector slowdowns while staying far below the serial cost.
	if limit := 3 * helloTimeout; elapsed >= limit {
		t.Fatalf("federation took %v with %d silent conns; want < %v (serial reads would cost ~%v of stall alone)",
			elapsed, silent, limit, silent*helloTimeout)
	}
	// Every lurker and both garbage conns were accepted before the
	// legitimate parties (loopback accepts are FIFO), so each is either
	// already rejected or expired-and-rejected when admission completes —
	// all delivered before AcceptAndRun returned.
	mu.Lock()
	defer mu.Unlock()
	if rejected < silent+2 {
		t.Fatalf("only %d of %d bad conns rejected", rejected, silent+2)
	}
}

// runChunkedTCP runs a chunked federation over loopback TCP with send
// jitter on every party, forcing heavy cross-party frame interleaving in
// both directions, and returns the server's result.
func runChunkedTCP(t *testing.T, cfg fl.Config, locals []*data.Dataset, test *data.Dataset) *fl.Result {
	t.Helper()
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
			c, err := net.Dial("tcp", addr)
			if err != nil {
				t.Errorf("party %d dial: %v", i, err)
				return
			}
			defer c.Close()
			conn := &jitterConn{Conn: NewTCPConn(c), r: rng.New(uint64(2000 + i))}
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
	return sr.res
}

// TestChunkedDownlinkParityAcrossChunkSizes pins chunk-size parity of
// the broadcast: the same SCAFFOLD federation (two-vector downlink —
// state plus server control, so frames meet the state/control seam) runs
// once at ChunkSize 0 (each vector one frame) over in-process pipes and
// then over jittered TCP at three chunk sizes — a tiny odd size, a size that splits the state mid-vector with a
// short seam frame, and one bigger than the whole stream (single-frame
// degenerate case). Every final state must match the reference bit for
// bit.
func TestChunkedDownlinkParityAcrossChunkSizes(t *testing.T) {
	cfg, locals, test := smallFederation(t)
	cfg.Algorithm = fl.Scaffold
	cfg.Rounds = 2
	spec, _ := data.Model("adult")

	ref, err := RunLocal(cfg, spec, locals, test) // ChunkSize 0: one frame per vector
	if err != nil {
		t.Fatal(err)
	}
	stateLen := len(ref.FinalState)
	for _, chunk := range []int{37, stateLen/2 + 1, 1 << 20} {
		t.Run(fmt.Sprintf("chunk=%d", chunk), func(t *testing.T) {
			c := cfg
			c.ChunkSize = chunk
			got := runChunkedTCP(t, c, locals, test)
			if len(got.FinalState) != stateLen {
				t.Fatalf("state length %d vs %d", len(got.FinalState), stateLen)
			}
			for i := range ref.FinalState {
				if got.FinalState[i] != ref.FinalState[i] {
					t.Fatalf("state[%d]: chunk=%d %v vs chunk=0 %v", i, chunk, got.FinalState[i], ref.FinalState[i])
				}
			}
			for r := range ref.Curve {
				if got.Curve[r].TrainLoss != ref.Curve[r].TrainLoss {
					t.Fatalf("round %d: loss chunk=%d %v vs chunk=0 %v", r, chunk, got.Curve[r].TrainLoss, ref.Curve[r].TrainLoss)
				}
			}
		})
	}
}

// feedDownlink runs the party's live downlink reader over a pipe fed the
// given broadcast frames and returns its first event: the published
// broadcast handle, or the terminal error. max is the model's stream
// bound and free the reader's assembly-buffer free list.
func feedDownlink(t *testing.T, max int, free chan []float64, frames ...GlobalChunkMsg) dlItem {
	t.Helper()
	server, party := Pipe()
	r := newDownlinkReader(party, max, free, nil)
	go r.loop()
	t.Cleanup(func() {
		r.stop()
		_ = server.Close()
	})
	for _, fr := range frames {
		b, err := Marshal(fr)
		if err != nil {
			t.Fatal(err)
		}
		if err := server.Send(b); err != nil {
			t.Fatal(err)
		}
	}
	return <-r.ready
}

// TestDownlinkTotalBounded pins the party side of the memory contract:
// the assembly buffer is sized from the wire-supplied Total, so a header
// declaring an absurd stream length must be rejected before anything is
// allocated — the model's own state+param length is the bound.
func TestDownlinkTotalBounded(t *testing.T) {
	// Sizing the buffer from this Total would allocate 8 GiB; the
	// reader's whole allocation for the rejected stream must stay tiny.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	it := feedDownlink(t, 100, make(chan []float64, 1), GlobalChunkMsg{Total: 1 << 30, Chunk: 8, Payload: []float64{1}})
	runtime.ReadMemStats(&after)
	if it.err == nil || !strings.Contains(it.err.Error(), "exceeds this model's bound") {
		t.Fatalf("oversized downlink Total declaration: %+v", it)
	}
	if it.g != nil {
		t.Fatal("a broadcast handle was published for a rejected declaration")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Fatalf("rejecting the declaration allocated %d bytes", grew)
	}
	// A declaration at the bound still assembles normally, in place.
	it = feedDownlink(t, 3, make(chan []float64, 1), GlobalChunkMsg{Total: 3, Chunk: 8, Last: true,
		Payload: []float64{1, 2, 3}})
	if it.err != nil || it.g == nil {
		t.Fatalf("in-bound stream: %+v", it)
	}
	if !it.g.WaitAll() || len(it.g.State()) != 3 || it.g.State()[2] != 3 {
		t.Fatalf("in-bound stream assembled %v", it.g.State())
	}
	it.g.Release()
}

// TestDownlinkEmptyFrameRejected pins the no-spin rule on the party
// side: an empty frame that is not the stream's last makes no progress
// and must be rejected, not looped on — as the first frame, before any
// handle is published, and mid-stream, where the published handle fails.
func TestDownlinkEmptyFrameRejected(t *testing.T) {
	it := feedDownlink(t, 10, make(chan []float64, 1), GlobalChunkMsg{Total: 4, Chunk: 2})
	if it.err == nil || !strings.Contains(it.err.Error(), "empty non-final") || it.g != nil {
		t.Fatalf("empty non-final first downlink frame: %+v", it)
	}
	free := make(chan []float64, 1)
	server, party := Pipe()
	r := newDownlinkReader(party, 10, free, nil)
	go r.loop()
	defer func() {
		r.stop()
		_ = server.Close()
	}()
	for _, fr := range []GlobalChunkMsg{
		{Total: 4, Chunk: 2, Payload: []float64{1, 2}},
		{Offset: 2, Total: 4, Chunk: 2},
	} {
		b, err := Marshal(fr)
		if err != nil {
			t.Fatal(err)
		}
		if err := server.Send(b); err != nil {
			t.Fatal(err)
		}
	}
	// Read the queue directly: next() would conflate the published
	// handle away behind the terminal error.
	first := <-r.ready
	if first.g == nil {
		t.Fatalf("first frame did not publish a handle: %+v", first)
	}
	if first.g.WaitAll() {
		t.Fatal("a stream stalled on an empty frame reported complete")
	}
	if err := first.g.Err(); err == nil || !strings.Contains(err.Error(), "empty non-final") {
		t.Fatalf("stalled stream error: %v", err)
	}
	first.g.Release()
	if term := <-r.ready; term.err == nil || !strings.Contains(term.err.Error(), "empty non-final") {
		t.Fatalf("reader terminal event: %+v", term)
	}
}

// TestEmptyUplinkFrameDropsParty is the server-side twin: a party whose
// stream stalls on empty non-final frames must be dropped from the round
// (and evicted), not allowed to occupy its fold slot forever.
func TestEmptyUplinkFrameDropsParty(t *testing.T) {
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
				b, err := Marshal(UpdateChunkMsg{Round: round, Offset: 0, Total: len(g.State),
					N: rogueN, Tau: rogueTau, Last: false, Chunk: nil})
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
		t.Fatalf("federation should survive an empty-frame stall: %v", err)
	}
	assertEvictedAt(t, res.Curve, rogue, 0)
}

// TestChunkWindowFederation runs the same chunked federation under a
// lockstep window (1), the default, and a window far wider than the
// stream has frames. The window only shapes buffering, so all three must
// produce bitwise-identical states.
func TestChunkWindowFederation(t *testing.T) {
	cfg, locals, test := smallFederation(t)
	cfg.Rounds = 2
	cfg.ChunkSize = 64
	spec, _ := data.Model("adult")
	ref, err := RunLocal(cfg, spec, locals, test) // default window (4)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 1 << 10} {
		cfg.ChunkWindow = w
		got, err := RunLocal(cfg, spec, locals, test)
		if err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		for i := range ref.FinalState {
			if got.FinalState[i] != ref.FinalState[i] {
				t.Fatalf("window %d: state[%d] %v vs %v", w, i, got.FinalState[i], ref.FinalState[i])
			}
		}
	}
}
