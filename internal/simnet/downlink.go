package simnet

import (
	"fmt"
	"sync"
	"time"
)

// This file is the party side of the pipelined downlink: a dedicated
// reader goroutine owns the connection's Recv and hands the training
// loop incomingGlobal handles through a small buffered queue, so the
// next round's broadcast is received (and reassembled) while the current
// round still trains — and the handle of a framed broadcast is published
// after its FIRST frame, so training can start on the in-order
// state prefix while later chunks are still in flight (see
// fl.StreamedGlobal / Client.TrainStreamPrefixed).
//
// In synchronous mode the server never sends round N+1 before round N's
// reply, so the queue never holds more than one item and the observable
// behavior — computation, bytes, errors — is exactly the lockstep
// loop's. The buffering only pays off when the server runs ahead:
// buffered-async mode, where the trainer conflates the queue down to the
// newest generation.

// incomingGlobal is one round broadcast being (or already) received. It
// implements fl.StreamedGlobal: state fills front-to-back as chunks
// land, done is the valid watermark over the combined state+control
// stream, and a terminal err means the stream died mid-way. The reader
// goroutine advances it; the training goroutine waits on it and must
// Release it when finished (returning the assembly buffer to the
// session's free list).
type incomingGlobal struct {
	round  int
	budget int
	chunk  int
	// codec is the wire codec the broadcast arrived in; the reply streams
	// back in the same codec. Zero (raw f64) for interned broadcasts.
	codec byte

	mu   sync.Mutex
	cond *sync.Cond

	state   []float64
	control []float64
	buf     []float64 // pooled backing for state+control; nil when borrowed from an interned broadcast
	free    chan []float64

	total    int
	done     int
	err      error
	released bool
}

func newIncomingGlobal(round, budget, chunk int) *incomingGlobal {
	g := &incomingGlobal{round: round, budget: budget, chunk: chunk}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// State implements fl.StreamedGlobal.
func (g *incomingGlobal) State() []float64 { return g.state }

// Control implements fl.StreamedGlobal.
func (g *incomingGlobal) Control() []float64 { return g.control }

// WaitState blocks until the first n state elements are valid (the
// stream fills state first, then control, so a state watermark is a
// stream watermark) or the stream fails.
func (g *incomingGlobal) WaitState(n int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.done < n && g.err == nil {
		g.cond.Wait()
	}
	return g.done >= n
}

// WaitAll blocks until the complete stream landed or failed.
func (g *incomingGlobal) WaitAll() bool { return g.WaitState(g.total) }

// Err returns the stream's terminal error.
func (g *incomingGlobal) Err() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

// advance publishes a new watermark (reader side).
func (g *incomingGlobal) advance(n int) {
	g.mu.Lock()
	g.done = n
	g.mu.Unlock()
	g.cond.Broadcast()
}

// fail marks the stream dead (reader side); waiters unblock and report
// false.
func (g *incomingGlobal) fail(err error) {
	g.mu.Lock()
	if g.err == nil {
		g.err = err
	}
	g.mu.Unlock()
	g.cond.Broadcast()
}

// Release waits until the reader is done with the buffer (stream
// complete or failed — the reader never touches it after either) and
// returns it to the free list. Idempotent.
func (g *incomingGlobal) Release() {
	if g.released {
		return
	}
	g.released = true
	g.mu.Lock()
	for g.done < g.total && g.err == nil {
		g.cond.Wait()
	}
	g.mu.Unlock()
	if g.buf != nil {
		select {
		case g.free <- g.buf:
		default: // list full; let the buffer go
		}
	}
}

// dlItem is one event from the reader to the training loop: a round
// broadcast, a clean shutdown, or a terminal error. got reports whether
// at least one server frame arrived on this conn before the error —
// proof of admission, which is what turns the party's next dial into a
// rejoin.
type dlItem struct {
	g        *incomingGlobal
	err      error
	shutdown bool
	got      bool
}

// downlinkReader owns one connection's receive direction for the
// session's lifetime on that conn.
type downlinkReader struct {
	conn  Conn
	max   int // bound for a declared stream length (state + param control)
	ready chan dlItem
	free  chan []float64
	quit  chan struct{}
	// clearDeadline, when non-nil, is called after the first received
	// frame to lift the hello deadline — the server answered; round gaps
	// are its RoundTimeout's business.
	clearDeadline func()
}

func newDownlinkReader(conn Conn, max int, free chan []float64, clearDeadline func()) *downlinkReader {
	return &downlinkReader{
		conn: conn, max: max, free: free,
		ready:         make(chan dlItem, 4),
		quit:          make(chan struct{}),
		clearDeadline: clearDeadline,
	}
}

// stop ends the reader: wakes a parked push and best-effort unblocks an
// in-flight Recv. The conn close that follows every session teardown is
// the hard guarantee.
func (r *downlinkReader) stop() {
	close(r.quit)
	if dl, ok := r.conn.(readDeadliner); ok {
		_ = dl.SetReadDeadline(time.Now())
	}
}

// push delivers an item unless the session is tearing down. Reports
// whether the item was delivered.
func (r *downlinkReader) push(it dlItem) bool {
	select {
	case r.ready <- it:
		return true
	case <-r.quit:
		return false
	}
}

// next returns the next event, conflating a backlog down to the newest
// complete broadcast (releasing the ones superseded). Only the last
// queued broadcast can be incomplete — the reader finishes one stream
// before starting the next — so releasing earlier ones never blocks. A
// queued terminal event takes precedence over a stale broadcast. In sync
// mode the queue never holds two broadcasts, so conflation never fires.
func (r *downlinkReader) next() dlItem {
	it := <-r.ready
	for {
		select {
		case n := <-r.ready:
			if n.err != nil || n.shutdown {
				if it.g != nil {
					it.g.Release()
				}
				return n
			}
			if it.g != nil {
				it.g.Release()
			}
			it = n
		default:
			return it
		}
	}
}

// takeBuf returns a free assembly buffer, growing a fresh one when the
// list is empty (a buffer was lost to an aborted session — the list
// self-heals instead of starving).
func (r *downlinkReader) takeBuf() []float64 {
	select {
	case b := <-r.free:
		return b
	default:
		return nil
	}
}

// loop reads frames until shutdown, conn loss, or stop. Every exit path
// pushes exactly one terminal item (or had its push refused by stop).
func (r *downlinkReader) loop() {
	first := true
	for {
		raw, err := r.conn.Recv()
		if err != nil {
			r.push(dlItem{err: err, got: !first})
			return
		}
		if first {
			first = false
			if r.clearDeadline != nil {
				r.clearDeadline()
			}
		}
		if len(raw) > 0 && (raw[0] == msgGlobalChunk || raw[0] == msgGlobalChunkQ) {
			if !r.recvChunkedGlobal(raw) {
				return
			}
			continue
		}
		msg, err := Unmarshal(raw)
		if err != nil {
			r.push(dlItem{err: err, got: true})
			return
		}
		switch m := msg.(type) {
		case ShutdownMsg:
			r.push(dlItem{shutdown: true, got: true})
			return
		case GlobalRefMsg:
			g, err := takeGlobalRef(r.conn, m)
			if err != nil {
				r.push(dlItem{err: err, got: true})
				return
			}
			if !r.pushComplete(g) {
				return
			}
		default:
			r.push(dlItem{err: fmt.Errorf("unexpected message %T", msg), got: true})
			return
		}
	}
}

// pushComplete publishes an interned broadcast as an already-complete
// handle.
func (r *downlinkReader) pushComplete(m GlobalMsg) bool {
	ig := newIncomingGlobal(m.Round, m.Budget, m.Chunk)
	ig.state, ig.control = m.State, m.Control
	ig.total = len(m.State) + len(m.Control)
	ig.done = ig.total
	return r.push(dlItem{g: ig})
}

// recvChunkedGlobal reassembles one framed broadcast, publishing the
// handle right after the validated first frame so training can begin on
// the state prefix. Validation: constant header and codec, in-order
// gap-free offsets, consistent last marker, no empty non-final frames,
// declared length within the model's bound — checked before the
// assembly buffer is sized from it.
// Returns false when the reader must exit (terminal pushed or stopped).
func (r *downlinkReader) recvChunkedGlobal(raw []byte) bool {
	buf := r.takeBuf()
	first, codec, err := decodeGlobalFrameInto(raw, buf[:0])
	if err != nil {
		r.push(dlItem{err: err, got: true})
		return false
	}
	total, ctrl := first.Total, first.CtrlLen
	fatal := func(err error) bool {
		r.push(dlItem{err: err, got: true})
		return false
	}
	if total < 0 || ctrl < 0 || ctrl > total {
		return fatal(fmt.Errorf("downlink stream of %d elements with control suffix %d", total, ctrl))
	}
	if total > r.max {
		return fatal(fmt.Errorf("downlink stream of %d elements exceeds this model's bound %d", total, r.max))
	}
	switch {
	case first.Offset != 0 || len(first.Payload) > total:
		return fatal(fmt.Errorf("downlink frame [%d,%d) of %d, expected offset 0",
			first.Offset, first.Offset+len(first.Payload), total))
	case first.Last != (len(first.Payload) == total):
		return fatal(fmt.Errorf("downlink frame [0,%d) of %d has inconsistent last marker", len(first.Payload), total))
	case len(first.Payload) == 0 && !first.Last:
		return fatal(fmt.Errorf("empty non-final downlink frame at offset 0"))
	}
	if cap(buf) < total {
		buf = make([]float64, total)
	}
	buf = buf[:total]
	copy(buf, first.Payload) // no-op when the frame decoded in place

	ig := newIncomingGlobal(first.Round, first.Budget, first.Chunk)
	ig.codec = codec
	ig.buf, ig.free = buf, r.free
	ig.total = total
	ig.state = buf[:total-ctrl]
	if ctrl > 0 {
		ig.control = buf[total-ctrl:]
	}
	ig.done = len(first.Payload)
	if !r.push(dlItem{g: ig}) {
		return false
	}
	ig.advance(len(first.Payload))

	done := len(first.Payload)
	m := first
	for !m.Last {
		raw, err := r.conn.Recv()
		if err != nil {
			err = fmt.Errorf("downlink recv: %w", err)
			ig.fail(err)
			r.push(dlItem{err: err, got: true})
			return false
		}
		var c byte
		if m, c, err = decodeGlobalFrameInto(raw, buf[done:done:total]); err != nil {
			ig.fail(err)
			r.push(dlItem{err: err, got: true})
			return false
		}
		switch {
		case m.Round != first.Round || m.Total != total || m.CtrlLen != ctrl ||
			m.Budget != first.Budget || m.Chunk != first.Chunk || c != codec:
			err = fmt.Errorf("downlink frame header changed mid-stream")
		case m.Offset != done || done+len(m.Payload) > total:
			err = fmt.Errorf("downlink frame [%d,%d) of %d, expected offset %d",
				m.Offset, m.Offset+len(m.Payload), total, done)
		case m.Last != (done+len(m.Payload) == total):
			err = fmt.Errorf("downlink frame [%d,%d) of %d has inconsistent last marker",
				m.Offset, m.Offset+len(m.Payload), total)
		case len(m.Payload) == 0 && !m.Last:
			err = fmt.Errorf("empty non-final downlink frame at offset %d", done)
		}
		if err != nil {
			ig.fail(err)
			r.push(dlItem{err: err, got: true})
			return false
		}
		copy(buf[done:], m.Payload) // no-op when the frame decoded in place
		done += len(m.Payload)
		ig.advance(done)
	}
	return true
}
