package simnet

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// readDeadliner is implemented by conns whose Recv can be bounded in time
// (TCP); in-memory pipes are trusted in-process peers and don't need it.
type readDeadliner interface {
	SetReadDeadline(t time.Time) error
}

// recvLimiter is implemented by conns whose Recv can be bounded in size.
// The protocol sets the limit per phase (hello, round) so a hostile length prefix is rejected before anything is
// allocated or read, not after.
type recvLimiter interface {
	SetRecvLimit(n uint32)
}

// globalRefSender is implemented by conns that can publish a round's
// global vectors by reference instead of serializing them — the two ends
// of an in-process Pipe, which share a process and therefore a read-only
// view of the same memory. The receiver collects the reference with
// TakeGlobalRef (globalRefReceiver) after decoding the GlobalRefMsg
// descriptor frame.
type globalRefSender interface {
	SendGlobalRef(m GlobalMsg) error
}

// globalRefReceiver is the receiving half of pipe interning: it returns
// the state and control vectors the peer published for the given round.
// The returned slices are shared and strictly read-only.
type globalRefReceiver interface {
	TakeGlobalRef(round int) (state, control []float64, err error)
}

// Conn is a reliable, message-oriented duplex link between the server and
// one party.
type Conn interface {
	Send(b []byte) error
	Recv() ([]byte, error)
	Close() error
}

// globalSlot is the shared mailbox both ends of a Pipe use to intern a
// round's global vectors: the sender parks the slices here and ships only
// a small GlobalRefMsg descriptor through the channel; the receiver picks
// them up by round. One slot per pipe suffices because the protocol is
// lockstep per connection — a new broadcast never overtakes the previous
// round's pickup.
type globalSlot struct {
	mu      sync.Mutex
	round   int
	state   []float64
	control []float64
	ok      bool
}

// chanConn is an in-memory Conn built from a pair of buffered channels.
type chanConn struct {
	send   chan<- []byte
	recv   <-chan []byte
	closed chan struct{}
	// closeOnce is shared by both ends: either side (or both, racing —
	// a party closing its session while the server tears the pipe down)
	// may Close, and exactly one of them closes the shared channel.
	closeOnce *sync.Once
	slot      *globalSlot // shared with the peer end for broadcast interning
}

// Pipe returns two connected in-memory Conns. Because both ends live in
// one process, a round broadcast over a Pipe is interned: the sender
// publishes the global vectors by reference (SendGlobalRef) and the
// parties read one shared copy instead of each decoding their own.
func Pipe() (Conn, Conn) {
	ab := make(chan []byte, 4)
	ba := make(chan []byte, 4)
	closed := make(chan struct{})
	once := new(sync.Once)
	slot := &globalSlot{}
	a := &chanConn{send: ab, recv: ba, closed: closed, closeOnce: once, slot: slot}
	b := &chanConn{send: ba, recv: ab, closed: closed, closeOnce: once, slot: slot}
	return a, b
}

// SendGlobalRef publishes m's state and control vectors through the pipe's
// shared slot and sends the small GlobalRefMsg descriptor in-band
// (implements globalRefSender). The receiver must treat the vectors as
// read-only; they stay valid until the sender's next SendGlobalRef on this
// conn.
func (c *chanConn) SendGlobalRef(m GlobalMsg) error {
	c.slot.mu.Lock()
	c.slot.round = m.Round
	c.slot.state = m.State
	c.slot.control = m.Control
	c.slot.ok = true
	c.slot.mu.Unlock()
	b, err := Marshal(GlobalRefMsg{
		Round: m.Round, StateLen: len(m.State), CtrlLen: len(m.Control),
		Budget: m.Budget, Chunk: m.Chunk,
	})
	if err != nil {
		return err
	}
	return c.Send(b)
}

// TakeGlobalRef returns the vectors published for round (implements
// globalRefReceiver).
func (c *chanConn) TakeGlobalRef(round int) ([]float64, []float64, error) {
	c.slot.mu.Lock()
	defer c.slot.mu.Unlock()
	if !c.slot.ok || c.slot.round != round {
		return nil, nil, fmt.Errorf("simnet: no interned global for round %d", round)
	}
	return c.slot.state, c.slot.control, nil
}

func (c *chanConn) Send(b []byte) error {
	msg := append([]byte{}, b...)
	select {
	case c.send <- msg:
		return nil
	case <-c.closed:
		return fmt.Errorf("simnet: send on closed conn")
	}
}

func (c *chanConn) Recv() ([]byte, error) {
	// Drain pending messages before honoring close, so anything sent
	// before Close (a ShutdownMsg, say) is always deliverable — like TCP,
	// where data written before the FIN is still readable. Without this a
	// receiver entering Recv after Close races the two select cases.
	select {
	case b, ok := <-c.recv:
		if !ok {
			return nil, io.EOF
		}
		return b, nil
	default:
	}
	select {
	case b, ok := <-c.recv:
		if !ok {
			return nil, io.EOF
		}
		return b, nil
	case <-c.closed:
		// Both cases may have been ready (select picks randomly): drain
		// once more so a message sent before Close is never lost.
		select {
		case b, ok := <-c.recv:
			if ok {
				return b, nil
			}
		default:
		}
		return nil, io.EOF
	}
}

func (c *chanConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}

// tcpConn frames messages over a TCP stream with a 4-byte length prefix.
type tcpConn struct {
	c net.Conn
	// max bounds accepted frame sizes (see SetRecvLimit); atomic so the
	// round loop can tighten it while a receiver goroutine reads.
	max atomic.Uint32
}

// NewTCPConn wraps a net.Conn in length-prefixed message framing.
func NewTCPConn(c net.Conn) Conn {
	t := &tcpConn{c: c}
	t.max.Store(maxMsg)
	return t
}

// maxMsg is the absolute frame-size ceiling; SetRecvLimit can only lower
// it.
const maxMsg = 1 << 30

// SetRecvLimit bounds the next Recvs to frames of at most n bytes
// (implements recvLimiter); 0 or anything above the ceiling restores the
// ceiling.
func (t *tcpConn) SetRecvLimit(n uint32) {
	if n == 0 || n > maxMsg {
		n = maxMsg
	}
	t.max.Store(n)
}

func (t *tcpConn) Send(b []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(b)))
	if _, err := t.c.Write(hdr[:]); err != nil {
		return err
	}
	_, err := t.c.Write(b)
	return err
}

func (t *tcpConn) Recv() ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(t.c, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if max := t.max.Load(); n > max {
		return nil, fmt.Errorf("simnet: message of %d bytes exceeds limit %d", n, max)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(t.c, b); err != nil {
		return nil, err
	}
	return b, nil
}

func (t *tcpConn) Close() error { return t.c.Close() }

// SetReadDeadline bounds the next Recv (implements readDeadliner).
func (t *tcpConn) SetReadDeadline(d time.Time) error { return t.c.SetReadDeadline(d) }

// CountingConn wraps a Conn and tallies bytes in each direction.
type CountingConn struct {
	Inner     Conn
	sentBytes atomic.Int64
	recvBytes atomic.Int64
}

// NewCountingConn wraps inner with byte accounting.
func NewCountingConn(inner Conn) *CountingConn { return &CountingConn{Inner: inner} }

// Send forwards to the inner conn, counting payload bytes.
func (c *CountingConn) Send(b []byte) error {
	if err := c.Inner.Send(b); err != nil {
		return err
	}
	c.sentBytes.Add(int64(len(b)))
	return nil
}

// Recv forwards to the inner conn, counting payload bytes.
func (c *CountingConn) Recv() ([]byte, error) {
	b, err := c.Inner.Recv()
	if err != nil {
		return nil, err
	}
	c.recvBytes.Add(int64(len(b)))
	return b, nil
}

// Close closes the inner conn.
func (c *CountingConn) Close() error { return c.Inner.Close() }

// SetReadDeadline forwards to the inner conn when it supports deadlines
// and is a no-op otherwise (in-memory pipes).
func (c *CountingConn) SetReadDeadline(t time.Time) error {
	if d, ok := c.Inner.(readDeadliner); ok {
		return d.SetReadDeadline(t)
	}
	return nil
}

// SetRecvLimit forwards to the inner conn when it supports receive-size
// limits and is a no-op otherwise (in-memory pipes).
func (c *CountingConn) SetRecvLimit(n uint32) {
	if l, ok := c.Inner.(recvLimiter); ok {
		l.SetRecvLimit(n)
	}
}

// SendGlobalRef publishes the round's global vectors by reference when the
// inner conn supports interning (in-process pipes) and reports handled
// false otherwise so the caller falls back to serialized framing. A
// handled send is accounted at the exact size of the raw frame set it
// stands for (see globalFramesWireSize): measured CommBytes reports the
// protocol's logical traffic, which the interning shortcut does not
// change.
func (c *CountingConn) SendGlobalRef(m GlobalMsg) (handled bool, err error) {
	rs, ok := c.Inner.(globalRefSender)
	if !ok {
		return false, nil
	}
	if err := rs.SendGlobalRef(m); err != nil {
		return true, err
	}
	c.sentBytes.Add(globalFramesWireSize(len(m.State), len(m.Control), m.Chunk))
	return true, nil
}

// Sent returns the total payload bytes sent.
func (c *CountingConn) Sent() int64 { return c.sentBytes.Load() }

// Received returns the total payload bytes received.
func (c *CountingConn) Received() int64 { return c.recvBytes.Load() }
