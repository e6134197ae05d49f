package simnet

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/nn"
	"github.com/niid-bench/niidbench/internal/rng"
)

// serveFakeParty speaks the party protocol procedurally: it reads the
// interned global broadcast descriptor, drops it, and replies with the
// shared read-only delta streamed as chunk frames of the server-requested
// size (one whole-state frame at chunk size 0) through one reused encode
// buffer, as a real party session does. It never holds model state, so
// the process's live heap during a round is protocol buffering: exactly
// what BenchmarkRoundPeakMemory wants to observe.
func serveFakeParty(conn Conn, id, n int, delta []float64, cfg fl.Config) error {
	hello, err := Marshal(HelloMsg{ID: id, N: n, LabelDist: []float64{0.5, 0.5}})
	if err != nil {
		return err
	}
	if err := conn.Send(hello); err != nil {
		return err
	}
	tau := fl.PredictTau(cfg, n)
	var frame []byte
	stateLen := len(delta)
	for {
		raw, err := conn.Recv()
		if err != nil {
			return nil // server closed us after shutdown
		}
		if len(raw) == 0 || raw[0] == msgShutdown {
			return nil
		}
		if raw[0] != msgGlobalRef {
			return fmt.Errorf("fake party %d: unexpected message tag %d", id, raw[0])
		}
		// Interned pipe broadcast: only the tiny descriptor crosses the
		// channel; the fake party never touches the shared state.
		m, err := Unmarshal(raw)
		if err != nil {
			return err
		}
		g := m.(GlobalRefMsg)
		// Stagger replies a little, as real local training would, so the
		// downlink copies are dead by the time the upload burst peaks.
		time.Sleep(time.Duration(200+50*id) * time.Microsecond)
		chunk := frameBound(g.Chunk, stateLen)
		for off := 0; off < stateLen; off += chunk {
			end := min(off+chunk, stateLen)
			frame, err = AppendMarshal(frame[:0], UpdateChunkMsg{
				Round: g.Round, Offset: off, Total: stateLen,
				N: n, Tau: tau, TrainLoss: 0.5,
				Last: end == stateLen, Chunk: delta[off:end],
			})
			if err != nil {
				return err
			}
			if err := conn.Send(frame); err != nil {
				return err
			}
		}
	}
}

// BenchmarkRoundPeakMemory measures peak live heap through whole rounds
// of the wire protocol as the number of in-flight parties grows, over a
// chunk-size x frame-window sweep that includes chunk size 0 (each
// vector one frame). A sampler goroutine forces GCs and tracks the
// high-water HeapAlloc, reported as peak-live-B. The server holds the
// O(state) accumulator, a frame window per connection (window x frame
// size — a whole state vector per frame at chunk size 0) and up to
// Config.FoldAhead fully staged update streams (default 4); the downlink
// is interned over the in-process pipes (one shared broadcast buffer).
// The peak therefore does not stay flat as parties scale: fold-ahead
// staging alone grows it by up to FoldAhead state vectors, and bigger
// frames times deeper windows add O(parties x window x frame).
func BenchmarkRoundPeakMemory(b *testing.B) {
	spec := nn.ModelSpec{Kind: nn.KindMLP, InputDim: 20000, Classes: 2}
	// One constant-valued delta shared read-only by every fake party,
	// allocated before the heap baseline: it stands in for model state,
	// which the measurement excludes.
	delta := make([]float64, nn.Build(spec, rng.New(1)).StateCount())
	for i := range delta {
		delta[i] = 1e-3
	}
	modes := []struct {
		chunk, window int
	}{
		{0, 4},      // one frame per vector, default window
		{4096, 1},   // lockstep fold
		{4096, 4},   // default window
		{16384, 16}, // deep window x bigger frames
	}
	for _, parties := range []int{4, 16, 48} {
		for _, mode := range modes {
			b.Run(fmt.Sprintf("parties=%d/chunk=%d/window=%d", parties, mode.chunk, mode.window), func(b *testing.B) {
				cfg, err := fl.Config{
					Algorithm: fl.FedAvg, Rounds: 2, LocalEpochs: 1,
					BatchSize: 32, Seed: 7, Parallelism: 1,
					ChunkSize: mode.chunk, ChunkWindow: mode.window,
				}.Normalize()
				if err != nil {
					b.Fatal(err)
				}
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				base := ms.HeapAlloc
				var peak atomic.Uint64
				stop := make(chan struct{})
				var samplerDone sync.WaitGroup
				samplerDone.Add(1)
				go func() {
					defer samplerDone.Done()
					var ms runtime.MemStats
					for {
						select {
						case <-stop:
							return
						default:
						}
						runtime.GC()
						runtime.ReadMemStats(&ms)
						for {
							old := peak.Load()
							if ms.HeapAlloc <= old || peak.CompareAndSwap(old, ms.HeapAlloc) {
								break
							}
						}
						time.Sleep(time.Millisecond)
					}
				}()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					conns := make([]*CountingConn, parties)
					var wg sync.WaitGroup
					for p := 0; p < parties; p++ {
						serverSide, partySide := Pipe()
						conns[p] = NewCountingConn(serverSide)
						wg.Add(1)
						go func(p int, conn Conn) {
							defer wg.Done()
							if err := serveFakeParty(conn, p, 64, delta, cfg); err != nil {
								b.Error(err)
							}
						}(p, partySide)
					}
					fed := &Federation{Cfg: cfg, Spec: spec, conns: conns}
					if _, err := fed.serve(parties); err != nil {
						b.Fatal(err)
					}
					wg.Wait()
				}
				b.StopTimer()
				close(stop)
				samplerDone.Wait()
				p := peak.Load()
				if p > base {
					p -= base
				} else {
					p = 0
				}
				b.ReportMetric(float64(p), "peak-live-B")
			})
		}
	}
}
