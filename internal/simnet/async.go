package simnet

import (
	"fmt"
	"sync"
	"time"

	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/tensor"
)

// This file is the transport half of buffered-async aggregation
// (Config.AsyncBuffer > 0): Federation.RunAsync implements
// fl.AsyncTransport over the same conns, framing and membership machine
// the synchronous rounds use. The round barrier is gone — every party
// trains continuously against whatever global generation last reached it:
//
//   - one sender goroutine per party pushes each newly minted generation,
//     conflating a backlog down to the newest (a slow party skips
//     intermediate generations instead of queueing them);
//   - one receiver goroutine per party reads complete update streams and
//     folds them into the fl.AsyncCoordinator the moment they finish,
//     tagged with the generation they trained against for the staleness
//     discount;
//   - the main loop owns membership: it installs queued rejoins, keeps
//     the resync round stamp current, and watches liveness.
//
// The wire protocol is untouched: generations ride the existing Round
// fields of the chunk frames, so a party federates in async mode
// unchanged. Unlike the synchronous path, broadcast frames are always
// serialized — the pipes' GlobalRefMsg interning slot is
// single-generation and lockstep, which async is not — and the encode
// happens once per generation, shared by every sender (the encode-once
// cache the sync broadcast uses).

// asyncHub publishes the newest generation's encode-once frame cache to
// the sender goroutines. Senders wait for a generation newer than the
// one they last shipped, then pull their party's negotiated codec out of
// the shared cache — each codec is serialized once per generation no
// matter how many parties ride it. Publication keeps only the newest, so
// the hub is also the conflation point.
type asyncHub struct {
	mu   sync.Mutex
	cond *sync.Cond
	gen  int
	bf   *globalFrames
	has  bool
	done bool
}

func newAsyncHub() *asyncHub {
	h := &asyncHub{}
	h.cond = sync.NewCond(&h.mu)
	return h
}

// publish installs bf as the newest generation unless a newer one
// already landed (two receivers may flush back-to-back and race here —
// generation order wins, not arrival order).
func (h *asyncHub) publish(gen int, bf *globalFrames) {
	h.mu.Lock()
	if !h.has || gen > h.gen {
		h.gen, h.bf, h.has = gen, bf, true
	}
	h.mu.Unlock()
	h.cond.Broadcast()
}

// setDone releases every waiting sender for exit.
func (h *asyncHub) setDone() {
	h.mu.Lock()
	h.done = true
	h.mu.Unlock()
	h.cond.Broadcast()
}

func (h *asyncHub) isDone() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.done
}

// waitNewer blocks until a generation newer than sent is published (ok
// true) or the run is over (ok false).
func (h *asyncHub) waitNewer(sent int) (gen int, bf *globalFrames, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for !h.done && (!h.has || h.gen <= sent) {
		h.cond.Wait()
	}
	if h.done {
		return 0, nil, false
	}
	return h.gen, h.bf, true
}

// newGlobalGen wraps one generation's broadcast in its shared
// encode-once frame cache. state and control must be snapshots the
// aggregation will not mutate (fl.AsyncCoordinator.GlobalSnapshot
// copies); the frame sets encode lazily, per codec, on first use.
func newGlobalGen(gen int, state, control []float64, budget, chunk int) *globalFrames {
	gm := GlobalMsg{Round: gen, State: state, Control: control, Budget: budget, Chunk: chunk}
	return &globalFrames{gm: gm}
}

// evictConn is the asynchronous eviction path. Unlike evict (round loop
// only), it may be called from any sender or receiver goroutine, so it is
// guarded two ways under memMu: the conn captured by the reporting
// goroutine must still be the party's installed conn (a goroutine of an
// already-replaced conn reports stale news), and the party must still be
// alive (the first of a conn's two goroutines to notice wins; the second
// is a duplicate). In async mode OnEvict may therefore fire from these
// worker goroutines, not the main loop.
func (f *Federation) evictConn(id int, c *CountingConn, permanent bool, cause error) bool {
	f.memMu.Lock()
	if f.byParty[id] != c || f.state[id] != partyAlive {
		f.memMu.Unlock()
		return false
	}
	if permanent {
		f.state[id] = partyEvicted
	} else {
		f.state[id] = partySuspect
	}
	f.memMu.Unlock()
	_ = c.Close()
	if f.OnEvict != nil {
		f.OnEvict(&EvictionError{Party: id, Permanent: permanent, Cause: cause})
	}
	return true
}

// asyncDedup remembers the last generation each party's update was
// accepted against, so a rejoining party replaying its cached reply for
// the current generation — the right behavior toward a restarted server,
// which lost that fold — is not double-counted by a server that already
// folded it. Guarded: the fresh conn's receiver can race a stale
// receiver finishing its final stream.
type asyncDedup struct {
	mu   sync.Mutex
	last []int
}

func newAsyncDedup(n int) *asyncDedup {
	d := &asyncDedup{last: make([]int, n)}
	for i := range d.last {
		d.last[i] = -1
	}
	return d
}

// admit records and reports whether an update from id trained against gen
// is the first one: false means the identical contribution was already
// folded and the stream should be discarded.
func (d *asyncDedup) admit(id, gen int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.last[id] == gen {
		return false
	}
	d.last[id] = gen
	return true
}

// liveParties counts parties currently alive, under memMu (async worker
// goroutines move parties out concurrently).
func (f *Federation) liveParties() int {
	f.memMu.Lock()
	defer f.memMu.Unlock()
	n := 0
	for _, st := range f.state {
		if st == partyAlive {
			n++
		}
	}
	return n
}

// asyncSend pushes every newly minted generation to one party, always as
// serialized frames in the party's negotiated wire codec (resolved once:
// the codec is fixed for the conn's lifetime, renegotiated only by a
// rejoin, which starts a fresh sender). A send failure is transport loss
// toward that party only; after the run completes the conn may already
// be torn down, so late failures are not reported.
func (f *Federation) asyncSend(id int, c *CountingConn, hub *asyncHub, poke func()) {
	codec := f.codecForParty(id)
	sent := -1
	for {
		gen, bf, ok := hub.waitNewer(sent)
		if !ok {
			return
		}
		frames, err := bf.frames(codec)
		if err != nil {
			// An encode failure (a non-finite value the quantizer refused)
			// poisons this codec's frame set for the generation; the party
			// is cut loose as transport loss and may rejoin once a clean
			// generation is minted.
			if !hub.isDone() && f.evictConn(id, c, false, fmt.Errorf("simnet: encode for party %d: %w", id, err)) {
				poke()
			}
			return
		}
		for _, fr := range frames {
			if err := c.Send(fr); err != nil {
				if !hub.isDone() && f.evictConn(id, c, false, fmt.Errorf("simnet: send to party %d: %w", id, err)) {
					poke()
				}
				return
			}
		}
		sent = gen
	}
}

// asyncRecv reads one party's update streams for the conn's lifetime,
// folding each complete stream into the coordinator. It exits on conn
// loss, protocol violation, or coordinator rejection — never on run
// completion alone: after Done the party may still have one reply in
// flight, and draining it (the fold is then a no-op) is what keeps the
// party from blocking on a full pipe before it can read the ShutdownMsg.
// The conn's EOF — every party closes its end when its session ends — is
// the receiver's own termination.
func (f *Federation) asyncRecv(id int, c *CountingConn, hub *asyncHub, coord *fl.AsyncCoordinator, dedup *asyncDedup, poke func(), total, stateLen int) {
	f.memMu.Lock()
	meta := f.metas[id]
	f.memMu.Unlock()
	budget := f.asyncBudget()
	for {
		u, trainedGen, buf, err, fatal := f.recvAsyncUpdate(c, id, total, stateLen, meta)
		if err != nil {
			if !hub.isDone() && f.evictConn(id, c, fatal, err) {
				poke()
			}
			return
		}
		if !dedup.admit(id, trainedGen) {
			// A rejoin replayed the contribution this server already
			// folded (the party cannot know that); drop it silently.
			tensor.Shared.Put(buf)
			continue
		}
		flushed, done, ferr := coord.Fold(id, u, trainedGen)
		if ferr != nil {
			tensor.Shared.Put(buf)
			// done distinguishes a poisoned run (not the party's fault)
			// from a rejected update (aggregation contract violation).
			if !done && !hub.isDone() {
				f.evictConn(id, c, true, ferr)
			}
			poke()
			return
		}
		// Keep the tracked SCAFFOLD c_i mirroring the party's own
		// bookkeeping: the party advanced its c_i when it trained, whether
		// or not the fold still counted.
		f.applyControlDelta(id, u.DeltaC)
		tensor.Shared.Put(buf)
		if flushed && !done {
			gen, state, control := coord.GlobalSnapshot()
			hub.publish(gen, newGlobalGen(gen, state, control, budget, f.Cfg.ChunkSize))
		}
		if flushed || done {
			poke()
		}
	}
}

// asyncBudget returns the per-party kernel compute budget for async mode:
// all parties train concurrently all the time, so local federations split
// the configured cores across every party, not just a round's sample.
func (f *Federation) asyncBudget() int {
	if !f.local || len(f.byParty) == 0 {
		return 0
	}
	return tensor.Compute{Workers: f.Cfg.Parallelism}.Split(len(f.byParty)).Workers
}

// recvAsyncUpdate reads and validates one complete update stream from a
// party, reassembled with the synchronous stager's exact validation
// (uplinkStream). The returned buf backs u's vectors and must be
// returned to the shared pool once u is consumed. trainedGen is the
// generation the party reports training against; the coordinator bounds
// it. fatal classifies an error the way the sync path does: protocol
// violations are permanent, transport loss is not.
func (f *Federation) recvAsyncUpdate(c *CountingConn, id, total, stateLen int, meta fl.UpdateMeta) (u fl.Update, trainedGen int, buf *tensor.Tensor, err error, fatal bool) {
	t := tensor.Shared.GetRaw(tensor.Float64, total)
	data := t.Data()[:total]
	stream := uplinkStream{id: id, total: total, bound: frameBound(f.Cfg.ChunkSize, total), meta: meta}
	fail := func(err error, fatal bool) (fl.Update, int, *tensor.Tensor, error, bool) {
		tensor.Shared.Put(t)
		return fl.Update{}, 0, nil, err, fatal
	}
	for first := true; ; first = false {
		// No deadline while waiting for a stream to begin: an async party
		// legitimately idles between generations for as long as the flush
		// schedule takes (its training time is someone else's fold), so
		// RoundTimeout bounds only the gaps inside a stream. A crashed
		// party is still detected promptly through its conn.
		if first {
			_ = c.SetReadDeadline(time.Time{})
		} else if f.RoundTimeout > 0 {
			_ = c.SetReadDeadline(time.Now().Add(f.RoundTimeout))
		}
		raw, rerr := c.Recv()
		if rerr != nil {
			return fail(fmt.Errorf("simnet: recv from party %d: %w", id, rerr), false)
		}
		done := stream.done
		m, codec, derr := decodeUpdateFrameInto(raw, data[done:done:total])
		if derr != nil {
			return fail(fmt.Errorf("simnet: bad frame from party %d: %w", id, derr), true)
		}
		if first {
			// The stream trains against whichever generation its first
			// frame names; every later frame must repeat it.
			stream.round = m.Round
		}
		last, verr := stream.accept(m, codec, data)
		if verr != nil {
			return fail(verr, true)
		}
		if last {
			u = fl.Update{Delta: data[:stateLen], N: m.N, Tau: m.Tau, TrainLoss: m.TrainLoss}
			if stateLen < total {
				u.DeltaC = data[stateLen:total]
			}
			return u, stream.round, t, nil, false
		}
	}
}

// RunAsync implements fl.AsyncTransport: it drives the buffered-async
// protocol over the federation's conns until the coordinator completes,
// the run is poisoned, or every party is lost past the rejoin grace.
func (f *Federation) RunAsync(coord *fl.AsyncCoordinator) error {
	gen, state, control := coord.GlobalSnapshot()
	total := len(state) + len(control)
	stateLen := len(state)
	limit := recvLimitFor(f.Cfg.ChunkSize, stateLen, len(control))
	budget := f.asyncBudget()

	hub := newAsyncHub()
	dedup := newAsyncDedup(len(f.byParty))
	poke := make(chan struct{}, 1)
	pokeFn := func() {
		select {
		case poke <- struct{}{}:
		default:
		}
	}
	var sendWg, recvWg sync.WaitGroup
	start := func(id int, c *CountingConn) {
		c.SetRecvLimit(limit)
		sendWg.Add(1)
		recvWg.Add(1)
		go func() {
			defer sendWg.Done()
			f.asyncSend(id, c, hub, pokeFn)
		}()
		go func() {
			defer recvWg.Done()
			f.asyncRecv(id, c, hub, coord, dedup, pokeFn, total, stateLen)
		}()
	}

	var runErr error
	if !coord.Done() {
		bf := newGlobalGen(gen, state, control, budget, f.Cfg.ChunkSize)
		// Encode the configured codec eagerly so an unencodable initial
		// state fails the run up front, as the old eager encode did,
		// instead of surfacing as per-party evictions.
		if _, err := bf.frames(wireCodec(f.Cfg.Codec)); err != nil {
			return err
		}
		hub.publish(gen, bf)
		f.memMu.Lock()
		type partyConn struct {
			id int
			c  *CountingConn
		}
		var boot []partyConn
		for id, c := range f.byParty {
			if c != nil && f.state[id] == partyAlive {
				boot = append(boot, partyConn{id, c})
			}
		}
		f.memMu.Unlock()
		for _, p := range boot {
			start(p.id, p.c)
		}

		var allDeadSince, belowQuorumSince time.Time
		quorumBudget := time.Duration(f.Cfg.QuorumRetries) * f.Cfg.QuorumRetryWait
		for {
			if coord.Done() || coord.Failed() != nil {
				break
			}
			select {
			case <-poke:
			case <-time.After(2 * time.Millisecond):
			}
			// Keep the resync stamp current so a rejoin handshake reports
			// the generation the party is about to receive.
			f.roundsDone = coord.Generation()
			for _, id := range f.installQueuedRejoins() {
				start(id, f.byParty[id])
			}
			live := f.liveParties()
			coord.SetLive(live)
			if live > 0 {
				allDeadSince = time.Time{}
				if live >= f.Cfg.MinParties {
					belowQuorumSince = time.Time{}
					continue
				}
				// Degraded below quorum but not dead: the async mirror of
				// the synchronous skip-and-retry. Give rejoins the same
				// total budget (QuorumRetries x QuorumRetryWait) the sync
				// engine allows, then fail loudly with the same typed error
				// instead of limping along on fewer parties than the
				// operator required.
				if belowQuorumSince.IsZero() {
					belowQuorumSince = time.Now()
				}
				f.memMu.Lock()
				queued := len(f.rejoins) > 0
				f.memMu.Unlock()
				if waited := time.Since(belowQuorumSince); !queued && waited >= quorumBudget {
					runErr = &fl.QuorumError{
						Round: coord.Generation(), Live: live, Min: f.Cfg.MinParties,
						Attempts: f.Cfg.QuorumRetries,
					}
					break
				}
				continue
			}
			if allDeadSince.IsZero() {
				allDeadSince = time.Now()
			}
			f.memMu.Lock()
			queued := len(f.rejoins) > 0
			f.memMu.Unlock()
			if !queued && time.Since(allDeadSince) >= f.RejoinGrace {
				runErr = fmt.Errorf("simnet: async federation lost every party at generation %d", coord.Generation())
				break
			}
		}
	}

	// Teardown. Senders first — a conn must never see two concurrent
	// writers — then a goodbye on every live conn. Receivers are not
	// closed out from under their parties: each drains its conn until the
	// party, having read the ShutdownMsg past any reply it was still
	// uploading, closes its end.
	hub.setDone()
	sendWg.Wait()
	if enc, err := Marshal(ShutdownMsg{}); err == nil {
		f.memMu.Lock()
		var live []*CountingConn
		for id, c := range f.byParty {
			if c != nil && f.state[id] == partyAlive {
				live = append(live, c)
			}
		}
		f.memMu.Unlock()
		for _, c := range live {
			_ = c.Send(enc)
		}
	}
	recvWg.Wait()
	f.roundsDone = coord.Generation()
	return runErr
}
