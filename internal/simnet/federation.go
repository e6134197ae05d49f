package simnet

import (
	"crypto/subtle"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/nn"
	"github.com/niid-bench/niidbench/internal/rng"
	"github.com/niid-bench/niidbench/internal/tensor"
)

// window returns the per-connection frame window — how many
// decoded-but-unfolded chunk frames the server holds per connection. Each
// sampled party's receiver goroutine parks once this many frames await
// the fold, which stops reading the conn and lets the transport's own
// flow control (channel capacity for pipes, the kernel's socket buffers
// for TCP) push back on the sender. Server-side transient buffering in a
// round is therefore O(sampled x window x frame) on top of the O(state)
// accumulator — with a positive ChunkSize, never a full state vector per
// in-flight client.
// The width comes from Config.ChunkWindow (CLI -chunk-window) so
// deployments can trade smoothing against memory for their RTT; the
// guard covers Federations constructed without Normalize.
func (f *Federation) window() int {
	if w := f.Cfg.ChunkWindow; w > 0 {
		return w
	}
	return 4
}

// Federation runs the federated protocol over explicit connections: the
// server goroutine owns aggregation, each party goroutine owns its local
// dataset and model, and all model movement happens through serialized
// messages on Conns. The round machinery — sampling, streaming
// aggregation, metrics, evaluation cadence — is the shared fl.Engine; this
// type is its message-passing Transport.
type Federation struct {
	Cfg   fl.Config
	Spec  nn.ModelSpec
	Test  *data.Dataset
	conns []*CountingConn // server side, in arrival order
	// Token, when non-empty, is the shared secret every hello must
	// present; a mismatch costs the offending connection only.
	Token string
	// RoundTimeout, when positive, bounds how long the server waits for
	// each reply frame within a round (the clock restarts on every
	// received frame, so the first gap must cover the party's local
	// training). A party that stalls past it is treated like a dead conn
	// and evicted from the federation. Zero waits forever — the right
	// default when honest parties may train for arbitrarily long. Only
	// effective on conns with deadline support (TCP); in-memory pipes are
	// trusted in-process peers.
	RoundTimeout time.Duration
	// RejoinGrace, when positive, is the broadcast heal window: a round
	// whose broadcast fails toward some party waits up to this long
	// for that party's rejoin before proceeding without it. A death
	// discovered at the broadcast — before the party trained or any update
	// was folded — is the one failure that can be repaired mid-round
	// without touching the math: the rejoined conn just gets the same
	// broadcast again. Healing here is what makes a between-rounds conn
	// loss bitwise-invisible to the aggregation; zero (the default) skips
	// the wait and lets the round drop the party as usual.
	RejoinGrace time.Duration
	// local marks in-process parties (RunLocal): the server then sends
	// per-round kernel compute budgets so K concurrently-training parties
	// split the machine instead of oversubscribing it. Over TCP parties
	// are other processes and the budget stays 0 (uncapped).
	local bool

	// OnEvict, when set, is called with every party departure — suspect
	// (transport loss, may rejoin) or evicted (protocol violation,
	// permanent) — from the round loop goroutine.
	OnEvict func(*EvictionError)

	// Populated by the hello handshake.
	byParty []*CountingConn // conn per party ID
	metas   []fl.UpdateMeta // aggregation metadata per party ID
	dists   [][]float64     // label distribution per party ID
	// state tracks each party through the membership machine: alive →
	// suspect (transport loss: conn closed, receiver terminated, later
	// rounds skip it — but a rejoin hello under the old ID restores it) or
	// alive → evicted (protocol violation: same removal, but rejoin is
	// refused — a peer that framed garbage once is not re-trusted). One
	// crashed party degrades round capacity rather than aborting the
	// federation. Written from the round loop; read concurrently by the
	// rejoin admission path under memMu.
	state []partyState
	// memMu guards the membership seam crossed by the accept loop's
	// handler goroutines: state transitions, the rejoin queue, and the
	// conns table growth when a rejoin is installed.
	memMu   sync.Mutex
	rejoins []rejoinReq
	// resyncC tracks each party's SCAFFOLD control variate c_i as the
	// running sum of its accepted control-delta uploads (c_i starts at
	// zero; each round's DeltaC = c_new − c_old). Nil per party until its
	// first control upload, nil forever for non-SCAFFOLD runs. It exists
	// solely to answer rejoins: a reconnecting party — even a restarted
	// process that lost everything — gets its exact c_i back in the
	// ResyncMsg. Updated transactionally: a round's staged deltas are
	// applied only after the stream's FinishUpdate succeeds, so corrupted
	// or dropped streams never diverge the tracked value.
	resyncC [][]float64
	ctrlLen int // this round's control-vector length (0 outside SCAFFOLD)

	roundsDone int   // completed rounds, for the ResyncMsg round stamp
	prevBytes  int64 // byte watermark for per-round accounting

	// codecs records the wire chunk codec negotiated with each party:
	// the configured Cfg.Codec when the peer's hello advertised support
	// for it, raw float64 otherwise. Written at registration and on every
	// rejoin under memMu.
	codecs []byte

	// Resume, when non-nil, is the durable snapshot this federation
	// continues from: the engine restores it before round startRound, and
	// admission treats rejoin hellos from unknown parties as first
	// contact (register + immediate ResyncMsg), because the restarted
	// server has no live sessions for the parties that survived it.
	Resume *fl.FederationSnapshot
	// Checkpoint, when set, is invoked at round boundaries (every
	// CheckpointEvery rounds; <=0 means every round) with a complete
	// snapshot — server state, sampler position, metrics history and the
	// per-party resync controls — for durable storage. An error aborts
	// the run.
	Checkpoint      func(*fl.FederationSnapshot) error
	CheckpointEvery int
	// InitialState, when non-nil, seeds the global model from a bare
	// state-vector checkpoint before round 0 (the TCP mirror of
	// Simulation.SetInitialState). Ignored when Resume is set — a full
	// snapshot already carries the state.
	InitialState []float64
}

// partyState is one party's position in the membership machine.
type partyState uint8

const (
	partyAlive   partyState = iota
	partySuspect            // transport loss; a rejoin hello restores it
	partyEvicted            // protocol violation; rejoin refused
)

// EvictionError reports a party's removal from the federation and why.
// Permanent distinguishes protocol violations (evicted — the party may
// not rejoin) from transport loss (suspect — a rejoin hello under the
// old ID will be honored). Unwrap exposes the cause, so errors.As/Is see
// through it.
type EvictionError struct {
	Party     int
	Permanent bool
	Cause     error
}

func (e *EvictionError) Error() string {
	kind := "suspect (transport loss, may rejoin)"
	if e.Permanent {
		kind = "evicted (protocol violation)"
	}
	return fmt.Sprintf("simnet: party %d %s: %v", e.Party, kind, e.Cause)
}

func (e *EvictionError) Unwrap() error { return e.Cause }

// rejoinReq is a validated rejoin hello parked until the round boundary.
type rejoinReq struct {
	conn *CountingConn
	h    HelloMsg
}

// ServeParty runs one party's message loop on conn until shutdown. It is
// exported so parties can be run in separate processes over TCP. The party
// introduces itself with a HelloMsg (identity, optional shared-secret
// token, dataset size, label distribution) so the server can authenticate
// it, weight its updates and sample stratified without ever seeing the raw
// data. Round replies stream back as chunk frames of the size the
// server's broadcast asked for. For rejoin-capable parties over TCP, see
// DialPartyOpts, which keeps the session's model and buffers across
// reconnects.
func ServeParty(conn Conn, id int, local *data.Dataset, spec nn.ModelSpec, cfg fl.Config, seed uint64, token string) error {
	s, err := newPartySession(id, local, spec, cfg, seed)
	if err != nil {
		return err
	}
	return s.run(conn, token, false, 0)
}

// partySession is one party's durable half of the protocol: the client
// (model, optimizer state, SCAFFOLD control, MOON history) and the reused
// wire buffers. It outlives any single connection, so a party that loses
// its conn and rejoins resumes with everything it had — the in-process
// mirror of what ResyncMsg restores for a party that lost the process.
type partySession struct {
	id     int
	cfg    fl.Config
	client *fl.Client
	frame  []byte // reused chunk-frame encode buffer
	qbuf   []byte // reused quantized-payload scratch (quantized codecs only)
	// dlFree recycles chunked-downlink assembly buffers across rounds and
	// reconnects; the downlink reader draws from it and Release returns
	// to it, so a steady synchronous session holds one state-length
	// buffer, and a pipelined one at most the few in flight.
	dlFree chan []float64
	hello  HelloMsg // identity fields; Rejoin varies per attempt
	// progressed flips once a session receives its first round broadcast —
	// proof the server admitted this party, which is what makes a later
	// redial a rejoin rather than a first contact.
	progressed bool
	// cacheOn retains each trained round's reply (one extra state-length
	// vector) so that a re-broadcast of the same round — a restored server
	// redoing the round it lost, or a reply whose conn died mid-send — is
	// answered by replaying the identical bytes instead of retraining.
	// Local training is NOT idempotent (the batch-shuffle RNG, FedDyn's h
	// and SCAFFOLD's c_i all advance per call), so replay is what keeps a
	// crash-restarted run bitwise equal to the uninterrupted one. Enabled
	// for rejoin-capable sessions (DialPartyOpts with Rejoin).
	cacheOn bool
	cache   replyCache
}

// replyCache is one round's finished uplink, kept verbatim.
type replyCache struct {
	valid  bool
	round  int
	n, tau int
	loss   float64
	delta  []float64
	deltaC []float64
}

// store copies a trained update into the cache (reusing its buffers).
func (c *replyCache) store(round int, u fl.Update) {
	c.valid = true
	c.round = round
	c.n, c.tau, c.loss = u.N, u.Tau, u.TrainLoss
	c.delta = append(c.delta[:0], u.Delta...)
	if u.DeltaC != nil {
		c.deltaC = append(c.deltaC[:0], u.DeltaC...)
	} else {
		c.deltaC = nil
	}
}

func newPartySession(id int, local *data.Dataset, spec nn.ModelSpec, cfg fl.Config, seed uint64) (*partySession, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	return &partySession{
		id:     id,
		cfg:    cfg,
		client: fl.NewClient(id, local, cfg.ResolveSpec(spec), rng.New(seed)),
		hello:  HelloMsg{ID: id, N: local.Len(), LabelDist: local.LabelDistribution()},
	}, nil
}

// run serves one connection's lifetime: hello (optionally a rejoin), then
// the round loop until shutdown or conn loss. helloTimeout, when positive,
// bounds how long the server may take to produce its first frame after
// the hello — the party-side mirror of ServerListener.HelloTimeout, so a
// party dialing a hung server fails (and can redial) instead of blocking
// forever. Effective only on conns with deadline support.
func (s *partySession) run(conn Conn, token string, rejoin bool, helloTimeout time.Duration) error {
	h := s.hello
	h.Token, h.Rejoin = token, rejoin
	hello, err := Marshal(h)
	if err != nil {
		return err
	}
	if err := conn.Send(hello); err != nil {
		return fmt.Errorf("simnet: party %d hello: %w", s.id, err)
	}
	// Bound every server frame before it is read: the largest legitimate
	// downlink is one chunk frame carrying this party's whole state (the
	// ChunkSize 0 framing); smaller chunks, resyncs and shutdowns fit
	// under it. The party side of the memory contract — a hostile (or
	// buggy) server cannot make a party allocate an arbitrary frame.
	if rl, ok := conn.(recvLimiter); ok {
		rl.SetRecvLimit(downlinkLimit(s.client.StateCount()))
	}
	dl, hasDeadline := conn.(readDeadliner)
	if helloTimeout > 0 && hasDeadline {
		_ = dl.SetReadDeadline(time.Now().Add(helloTimeout))
	}
	if rejoin {
		// The server's first frame on a rejoined conn is the ResyncMsg
		// restoring whatever per-party state the server tracks (the
		// SCAFFOLD control variate; see the ResyncMsg contract). It must
		// come before any round traffic.
		raw, err := conn.Recv()
		if err != nil {
			return fmt.Errorf("simnet: party %d resync recv: %w", s.id, err)
		}
		msg, err := Unmarshal(raw)
		if err != nil {
			return fmt.Errorf("simnet: party %d resync decode: %w", s.id, err)
		}
		m, ok := msg.(ResyncMsg)
		if !ok {
			return fmt.Errorf("simnet: party %d expected resync, got %T", s.id, msg)
		}
		if s.client.ScaffoldControl() == nil {
			// Only a party that lost its local SCAFFOLD state (a restarted
			// process) adopts the server's tracked c_i. A live session's
			// own c_i chain is the exact value; the server's telescoped sum
			// of uploaded deltas equals it mathematically but not bitwise
			// after the first round, and overwriting would fork the run
			// from the never-dropped reference.
			s.client.SetScaffoldControl(m.Control)
		}
		s.progressed = true // the server honored the rejoin
	}
	// The downlink reader owns Recv for the rest of this connection's
	// life: broadcasts assemble (and queue) while the loop below trains,
	// so downlink latency hides behind compute. Sends — replies and
	// replays — stay on this goroutine: a conn has exactly one sender and
	// one receiver at all times.
	var clear func()
	if helloTimeout > 0 && hasDeadline {
		clear = func() {
			// The server answered; round gaps are its RoundTimeout's
			// business, not the hello deadline's.
			_ = dl.SetReadDeadline(time.Time{})
		}
	}
	if s.dlFree == nil {
		s.dlFree = make(chan []float64, 4)
	}
	r := newDownlinkReader(conn, s.client.StateCount()+s.client.ParamCount(), s.dlFree, clear)
	go r.loop()
	defer r.stop()
	for {
		it := r.next()
		if it.shutdown {
			s.progressed = true
			return nil
		}
		if it.err != nil {
			if it.got {
				s.progressed = true
			}
			return fmt.Errorf("simnet: party %d recv: %w", s.id, it.err)
		}
		s.progressed = true
		if err := s.handleGlobal(conn, it.g); err != nil {
			return err
		}
	}
}

// handleGlobal answers one round broadcast: a replay of the cached
// reply, or prefix training and a streamed reply. The handle is always
// released — returning its assembly buffer to the session's free list —
// whatever the outcome.
func (s *partySession) handleGlobal(conn Conn, ig *incomingGlobal) error {
	defer ig.Release()
	s.client.SetComputeBudget(tensor.Compute{Workers: ig.budget})
	if s.cacheOn && s.cache.valid && ig.round == s.cache.round {
		// The server re-asked for a round this session already trained
		// — it restored from a checkpoint taken before our reply
		// landed, or our uplink died mid-send. Replay the cached reply
		// verbatim; retraining would advance the client's RNG and
		// per-algorithm state a second time and fork the run.
		if err := s.replayReply(conn, ig.round, ig.chunk, ig.codec); err != nil {
			return fmt.Errorf("simnet: party %d replay: %w", s.id, err)
		}
		return nil
	}
	var cache *replyCache
	if s.cacheOn {
		cache = &s.cache
	}
	if err := partyTrain(conn, s.client, ig, s.cfg, &s.frame, &s.qbuf, cache); err != nil {
		return fmt.Errorf("simnet: party %d: %w", s.id, err)
	}
	return nil
}

// replayReply re-sends the cached uplink for round in whichever chunk
// size and wire codec the server asked for. Quantization is
// deterministic, so a replay re-quantizing the cached float64 update
// produces bytes identical to the original reply.
func (s *partySession) replayReply(conn Conn, round, chunkSize int, codec byte) error {
	c := &s.cache
	total := len(c.delta) + len(c.deltaC)
	return fl.ChunkStream(c.delta, c.deltaC, chunkSize, func(offset int, chunk []float64) error {
		b, err := appendUpdateFrame(s.frame[:0], &s.qbuf, codec, UpdateChunkMsg{
			Round: round, Offset: offset, Total: total,
			N: c.n, Tau: c.tau, TrainLoss: c.loss,
			Last:  offset+len(chunk) == total,
			Chunk: chunk,
		})
		if err != nil {
			return err
		}
		s.frame = b
		return conn.Send(b)
	})
}

// downlinkLimit bounds the frames a party accepts from the server: one
// raw chunk frame carrying the party's full state (the largest vector a
// ChunkSize 0 broadcast frames whole — a SCAFFOLD control vector is
// parameter-length, never longer), plus header slack.
func downlinkLimit(stateLen int) uint32 {
	sz := globalFramesWireSize(stateLen, 0, 0) + 64
	if sz > maxMsg {
		return maxMsg
	}
	return uint32(sz)
}

// takeGlobalRef resolves an interned broadcast descriptor against the
// pipe's shared slot and cross-checks the published vectors' shape.
func takeGlobalRef(conn Conn, m GlobalRefMsg) (GlobalMsg, error) {
	rr, ok := conn.(globalRefReceiver)
	if !ok {
		return GlobalMsg{}, fmt.Errorf("simnet: interned broadcast on a conn without a shared slot")
	}
	state, control, err := rr.TakeGlobalRef(m.Round)
	if err != nil {
		return GlobalMsg{}, err
	}
	if len(state) != m.StateLen || len(control) != m.CtrlLen {
		return GlobalMsg{}, fmt.Errorf("simnet: interned global (%d,%d) does not match descriptor (%d,%d)",
			len(state), len(control), m.StateLen, m.CtrlLen)
	}
	return GlobalMsg{Round: m.Round, State: state, Control: control, Budget: m.Budget, Chunk: m.Chunk}, nil
}

// partyTrain trains one round — beginning on the broadcast's in-order
// state prefix while later downlink chunks are still in flight
// (fl.Client.TrainStreamPrefixed) — and streams the update back as chunk
// frames of the server-requested size, in the same wire codec the
// broadcast arrived in (the negotiated codec). Each frame serializes a
// view into the client's pooled workspace through one reused encode
// buffer, so the party never materializes a second state-length vector
// for the reply.
func partyTrain(conn Conn, client *fl.Client, ig *incomingGlobal, cfg fl.Config, frame, qbuf *[]byte, cache *replyCache) error {
	p, err := client.TrainStreamPrefixed(ig, cfg)
	if err != nil {
		return err
	}
	defer p.Release()
	if cache != nil {
		// Capture before streaming: even a reply that dies mid-send was
		// trained, and must be replayed (not retrained) when the round is
		// re-asked.
		cache.store(ig.round, p.Update())
	}
	u := p.Trailer()
	total := p.StreamLen()
	return p.Chunks(ig.chunk, func(offset int, chunk []float64) error {
		b, err := appendUpdateFrame((*frame)[:0], qbuf, ig.codec, UpdateChunkMsg{
			Round: ig.round, Offset: offset, Total: total,
			N: u.N, Tau: u.Tau, TrainLoss: u.TrainLoss,
			Last:  offset+len(chunk) == total,
			Chunk: chunk,
		})
		if err != nil {
			return err
		}
		*frame = b
		return conn.Send(b)
	})
}

// appendUpdateFrame encodes one uplink chunk frame into dst in the given
// wire codec: the raw UpdateChunkMsg for f64, or its quantized twin with
// the payload built in *qbuf (grown once, then reused frame after frame;
// Marshal copies the payload, so the scratch never escapes).
func appendUpdateFrame(dst []byte, qbuf *[]byte, codec byte, m UpdateChunkMsg) ([]byte, error) {
	if codec == wireCodecF64 {
		return AppendMarshal(dst, m)
	}
	payload, scale, err := quantizeChunk((*qbuf)[:0], codec, m.Chunk)
	if err != nil {
		return nil, err
	}
	*qbuf = payload
	return AppendMarshal(dst, UpdateChunkQMsg{
		Round: m.Round, Offset: m.Offset, Total: m.Total,
		N: m.N, Tau: m.Tau, Last: m.Last, TrainLoss: m.TrainLoss,
		Codec: codec, Count: len(m.Chunk), Scale: scale, Payload: payload,
	})
}

// RunLocal runs a full federation over in-memory pipes: one goroutine per
// party plus the server loop on the calling goroutine. It returns the same
// Result type as fl.Simulation, with CommBytes measured from the actual
// serialized traffic.
func RunLocal(cfg fl.Config, spec nn.ModelSpec, locals []*data.Dataset, test *data.Dataset) (*fl.Result, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	if len(locals) == 0 {
		return nil, fmt.Errorf("simnet: no parties")
	}
	conns := make([]*CountingConn, len(locals))
	var wg sync.WaitGroup
	partyErrs := make([]error, len(locals))
	for i, ds := range locals {
		serverSide, partySide := Pipe()
		conns[i] = NewCountingConn(serverSide)
		wg.Add(1)
		go func(i int, ds *data.Dataset, conn Conn) {
			defer wg.Done()
			partyErrs[i] = ServeParty(conn, i, ds, spec, cfg, cfg.Seed+uint64(i)*7919+13, "")
			// Close the party end when the session is over — the async
			// server's receivers drain each conn until EOF, and the pipe
			// only delivers one once an end closes (the TCP party's dial
			// wrapper closes its socket the same way).
			_ = conn.Close()
		}(i, ds, partySide)
	}
	fed := &Federation{Cfg: cfg, Spec: cfg.ResolveSpec(spec), Test: test, conns: conns, local: true}
	res, serveErr := fed.serve(len(locals))
	wg.Wait()
	if serveErr != nil {
		return nil, serveErr
	}
	for i, err := range partyErrs {
		if err != nil {
			return nil, fmt.Errorf("simnet: party %d failed: %w", i, err)
		}
	}
	return res, nil
}

// ServerListener is a bound TCP endpoint for a federation server. Create
// it with Listen, hand Addr() to the parties, then call AcceptAndRun.
type ServerListener struct {
	l net.Listener
	// Token, when non-empty, is the shared secret every connecting party
	// must present in its hello.
	Token string
	// OnReject, when set, is called with the reason each invalid
	// connection (bad hello, wrong protocol version or magic, out-of-range
	// or duplicate ID, token mismatch) was turned away. Rejections never
	// tear down the federation — the server keeps waiting for the
	// legitimate parties. Hellos are read concurrently, so OnReject may be
	// called from multiple goroutines at once, but never after
	// AcceptAndRun returns (conns still mid-hello when admission completes
	// are expired and their rejections delivered first; conns accepted
	// after that are closed silently). Version skew surfaces as a wrapped
	// *VersionError.
	OnReject func(error)
	// HelloTimeout bounds how long an accepted connection may take to
	// present its complete hello; a connection that stalls past it is
	// rejected like any other bad hello. Zero means the 10s default. A
	// timed-out legitimate party can simply redial. Hellos are read
	// concurrently (registration serialized under a lock) in bounded
	// batches of maxConcurrentHellos, so k silent or byte-trickling
	// connections delay admission by at most ceil(k/64) timeouts — one,
	// for any realistic k — instead of the old serial loop's k.
	HelloTimeout time.Duration
	// RoundTimeout, when positive, bounds the server's wait for each
	// reply frame within a round; see Federation.RoundTimeout. Zero (the
	// default) waits forever.
	RoundTimeout time.Duration
	// RejoinGrace, when positive, lets a round's broadcast wait this long
	// for a just-departed party's rejoin before proceeding without it; see
	// Federation.RejoinGrace. Zero (the default) never waits.
	RejoinGrace time.Duration
	// OnEvict, when set, is called with every party departure — suspect
	// (transport loss; a rejoin hello restores it) or evicted (protocol
	// violation; permanent) — from the round loop, before the next round
	// samples. See Federation.OnEvict.
	OnEvict func(*EvictionError)
	// Resume, when non-nil, continues a federation from a durable
	// snapshot instead of starting at round 0: the engine restores the
	// server and sampler state, and redialing parties' rejoin hellos are
	// admitted as first contacts with an immediate ResyncMsg. The
	// snapshot's party count must match AcceptAndRun's. See
	// Federation.Resume.
	Resume *fl.FederationSnapshot
	// Checkpoint and CheckpointEvery wire round-boundary snapshots; see
	// Federation.Checkpoint.
	Checkpoint      func(*fl.FederationSnapshot) error
	CheckpointEvery int
	// InitialState seeds round 0's global model from a bare state-vector
	// checkpoint; ignored when Resume is set. See Federation.InitialState.
	InitialState []float64
}

// Listen binds a TCP address for the federation server. Use "127.0.0.1:0"
// for an ephemeral local port.
func Listen(addr string) (*ServerListener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &ServerListener{l: l}, nil
}

// Addr returns the bound address parties should dial.
func (s *ServerListener) Addr() string { return s.l.Addr().String() }

// Close releases the listener.
func (s *ServerListener) Close() error { return s.l.Close() }

// AcceptAndRun accepts connections until numParties distinct parties have
// presented a valid hello, then executes the federated protocol to
// completion. Hellos are read concurrently — in bounded batches of
// maxConcurrentHellos, with registration into the federation's tables
// serialized under a lock — so a batch of silent connections stalls
// admission by at most one HelloTimeout in aggregate instead of one
// each, while pre-admission buffer memory stays capped. A connection
// whose hello is malformed, speaks the wrong protocol version, is out of
// range, a duplicate, or carries the wrong token is closed on its own —
// surfaced through OnReject, always before this function returns —
// without disturbing the parties already admitted. The accept loop stops
// when the caller closes the listener (connections arriving after the
// federation fills are closed without a callback until then). Parties
// connect with DialParty.
func (s *ServerListener) AcceptAndRun(numParties int, cfg fl.Config, spec nn.ModelSpec, test *data.Dataset) (*fl.Result, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	fed := &Federation{Cfg: cfg, Spec: cfg.ResolveSpec(spec), Test: test, Token: s.Token,
		RoundTimeout: s.RoundTimeout, RejoinGrace: s.RejoinGrace, OnEvict: s.OnEvict,
		Resume: s.Resume, Checkpoint: s.Checkpoint, CheckpointEvery: s.CheckpointEvery,
		InitialState: s.InitialState}
	fed.initParties(numParties)
	if s.Resume != nil {
		// Admission needs the snapshot's round stamp and per-party resync
		// controls before the first rejoin hello can arrive, and a
		// wrong-size snapshot must be refused before any party is admitted
		// into a federation that cannot run.
		if s.Resume.NumParties != numParties {
			return nil, fmt.Errorf("simnet: snapshot is for %d parties, AcceptAndRun called with %d", s.Resume.NumParties, numParties)
		}
		fed.roundsDone = s.Resume.Round
		for i, c := range s.Resume.PartyControl {
			if i < numParties && c != nil {
				fed.resyncC[i] = append([]float64(nil), c...)
			}
		}
	}
	helloTimeout := s.HelloTimeout
	if helloTimeout <= 0 {
		helloTimeout = 10 * time.Second
	}
	var (
		mu        sync.Mutex // serializes registration into fed's tables
		admitted  int
		done      = make(chan struct{})
		acceptErr = make(chan error, 1)
		// Hello reads are concurrent but bounded: each in-flight read may
		// hold up to a helloFrameLimit buffer plus an fd and a goroutine,
		// so an unbounded fan-out would let an attacker pin O(conns) of
		// all three by opening sockets and trickling bytes — the serial
		// loop's implicit one-at-a-time bound, kept, just widened. The
		// slot is acquired BEFORE Accept: conns beyond the bound are
		// never accepted and wait in the kernel's listen backlog (exactly
		// where the serial loop left them), holding no fd, goroutine or
		// buffer in this process. k bad conns now stall admission by
		// ceil(k/maxConcurrentHellos) timeouts instead of k, and a hello
		// deadline starts only once its conn is accepted.
		sem = make(chan struct{}, maxConcurrentHellos)
		// pending tracks conns whose hello is still being read, so the
		// moment the run completes the remaining readers can be cut loose
		// (deadline-now) and joined — OnReject never fires after
		// AcceptAndRun returns, and no hello goroutine outlives the call.
		handlers sync.WaitGroup
		pendMu   sync.Mutex
		pending  = make(map[net.Conn]struct{})
		// closed flips when AcceptAndRun is about to return: conns
		// accepted after that are closed without a callback. Unlike the
		// old admission-only accept loop, filling the federation does NOT
		// stop acceptance — the listener keeps reading hellos for the
		// whole run, because a suspect party's rejoin arrives as a fresh
		// connection (Rejoin=true hello, queued for the next round
		// boundary). Ordinary late hellos are still rejected.
		closed bool
	)
	go func() {
		for {
			sem <- struct{}{}
			c, err := s.l.Accept()
			if err != nil {
				select {
				case acceptErr <- err:
				default:
				}
				return
			}
			pendMu.Lock()
			if closed {
				// The run is over: close stray conns without a callback
				// (OnReject's contract is that it never fires after
				// AcceptAndRun returns).
				pendMu.Unlock()
				_ = c.Close()
				<-sem
				continue
			}
			pending[c] = struct{}{}
			handlers.Add(1)
			pendMu.Unlock()
			go func(c net.Conn) {
				defer handlers.Done()
				defer func() { <-sem }()
				_ = c.SetReadDeadline(time.Now().Add(helloTimeout))
				cc := NewCountingConn(NewTCPConn(c))
				// Nothing about a hello justifies a big frame: reject
				// hostile length prefixes before the token check can run.
				cc.SetRecvLimit(helloFrameLimit)
				// The read happens outside the lock: a silent conn burns
				// its own timeout without queueing anyone behind it.
				h, err := readHello(cc)
				// No longer reading: leave pending before registration, so
				// the end-of-run sweep can never touch an admitted party's
				// deadline.
				pendMu.Lock()
				delete(pending, c)
				pendMu.Unlock()
				switch {
				case err == nil && h.Rejoin && fed.Resume != nil && !fed.knownParty(h.ID):
					// A restored server: the survivors of the previous
					// incarnation redial with Rejoin=true, but this process
					// has no session for them — admit as first contact with
					// an immediate ResyncMsg, counting toward the quorum
					// that starts the resumed run.
					_ = c.SetReadDeadline(time.Time{})
					mu.Lock()
					if admitted >= numParties {
						err = fmt.Errorf("simnet: federation already has %d parties", numParties)
					} else if err = fed.registerRestored(cc, h, numParties); err == nil {
						if admitted++; admitted == numParties {
							close(done)
						}
					}
					mu.Unlock()
				case err == nil && h.Rejoin:
					// A rejoin is parked for the round loop; its hello
					// deadline is cleared the same way an admission's is —
					// SyncMembership owns the conn from here.
					_ = c.SetReadDeadline(time.Time{})
					err = fed.queueRejoin(cc, h, numParties)
				case err == nil:
					// Clear the hello deadline BEFORE registering: the
					// instant the last party registers, the round engine
					// may start using this conn — including setting
					// RoundTimeout deadlines from its receiver goroutine —
					// and a late clear from here would erase them.
					_ = c.SetReadDeadline(time.Time{})
					mu.Lock()
					if admitted >= numParties {
						err = fmt.Errorf("simnet: federation already has %d parties", numParties)
					} else if err = fed.register(cc, h, numParties); err == nil {
						if admitted++; admitted == numParties {
							close(done)
						}
					}
					mu.Unlock()
				}
				if err != nil {
					_ = cc.Close()
					if s.OnReject != nil {
						s.OnReject(err)
					}
				}
			}(c)
		}
	}()
	// stopAdmission expires every still-reading hello and joins the
	// handler goroutines: all rejections (including "still silent when the
	// run ended") are delivered before AcceptAndRun returns, in
	// microseconds — nothing waits out a timeout.
	stopAdmission := func() {
		pendMu.Lock()
		closed = true
		//lint:allow detercheck expiring pending hello deadlines is order-independent: every conn gets the same instant and none feeds a fold
		for c := range pending {
			_ = c.SetReadDeadline(time.Now())
		}
		pendMu.Unlock()
		handlers.Wait()
	}
	select {
	case <-done:
		// Registrations happened-before the close of done, so reading the
		// tables from here on is race-free; late hellos are rejected as
		// "federation already has N parties" under the same lock and never
		// touch the tables again. Acceptance continues — rejoin hellos
		// land in the queue until the run finishes.
	case err := <-acceptErr:
		stopAdmission()
		return nil, err
	}
	for _, c := range fed.byParty {
		fed.conns = append(fed.conns, c)
	}
	res, err := fed.serve(numParties)
	stopAdmission()
	return res, err
}

// DialParty connects a party to a TCP federation server and serves until
// shutdown. token must match the server's configured secret (empty when
// the server runs open).
func DialParty(addr string, id int, local *data.Dataset, spec nn.ModelSpec, cfg fl.Config, seed uint64, token string) error {
	return DialPartyOpts(addr, id, local, spec, cfg, seed, PartyOptions{Token: token})
}

// PartyOptions configures a dialing party beyond the positional basics.
// The zero value reproduces DialParty: no token, no hello timeout, no
// rejoin, no faults.
type PartyOptions struct {
	// Token is the shared secret presented in the hello (empty when the
	// server runs open).
	Token string
	// HelloTimeout bounds how long the server may take to produce its
	// first frame after this party's hello — the party-side mirror of
	// ServerListener.HelloTimeout. Zero waits forever.
	HelloTimeout time.Duration
	// Rejoin makes the party survive transport loss: instead of returning
	// the error, it redials with capped jittered exponential backoff and
	// re-hellos under its old ID with the Rejoin flag, resuming with its
	// local model and optimizer state intact (plus whatever the server's
	// ResyncMsg restores). Only transport-level failures are retried; a
	// clean shutdown still ends the party.
	Rejoin bool
	// RejoinBackoff is the first redial delay (default 50ms); each failed
	// attempt doubles it up to RejoinBackoffMax (default 2s), with a
	// uniform jitter of up to half the current delay drawn from the
	// party's seed so flap storms decorrelate deterministically.
	RejoinBackoff, RejoinBackoffMax time.Duration
	// RejoinAttempts caps consecutive failed reconnects (default 10); any
	// session that makes progress resets the count. Negative means
	// unlimited.
	RejoinAttempts int
	// Faults, when non-nil and non-empty, wraps every connection with the
	// party's deterministic fault stream derived from the plan — the
	// chaos-injection hook. Faults and Rejoin compose: an injected conn
	// kill exercises the same redial path a real network fault would.
	Faults *FaultPlan
}

// DialPartyOpts connects a party to a TCP federation server and serves
// until shutdown, with the session — model, optimizer state, SCAFFOLD
// control, reused buffers — surviving reconnects when opts.Rejoin is set.
func DialPartyOpts(addr string, id int, local *data.Dataset, spec nn.ModelSpec, cfg fl.Config, seed uint64, opts PartyOptions) error {
	s, err := newPartySession(id, local, spec, cfg, seed)
	if err != nil {
		return err
	}
	// A rejoin-capable party keeps its last trained reply so a restored
	// server re-asking for that round gets the identical bytes back
	// instead of a second (RNG-advancing) training pass.
	s.cacheOn = opts.Rejoin
	var faults *PartyFaults
	if opts.Faults != nil && !opts.Faults.Empty() {
		faults = opts.Faults.ForParty(id)
	}
	backoff := opts.RejoinBackoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	maxBackoff := opts.RejoinBackoffMax
	if maxBackoff <= 0 {
		maxBackoff = 2 * time.Second
	}
	attempts := opts.RejoinAttempts
	if attempts == 0 {
		attempts = 10
	}
	// The backoff jitter gets its own stream so it never perturbs the
	// client's training RNG — rejoin timing must not change the math.
	jr := rng.New(seed + 0x9E3779B97F4A7C15)
	delay := backoff
	failed := 0
	rejoining := false
	for {
		var sessErr error
		c, err := net.Dial("tcp", addr)
		if err != nil {
			sessErr = err
		} else {
			conn := Conn(NewTCPConn(c))
			if faults != nil {
				conn = faults.Wrap(conn)
			}
			s.progressed = false
			sessErr = s.run(conn, opts.Token, rejoining, opts.HelloTimeout)
			_ = c.Close()
			if sessErr == nil {
				return nil // clean shutdown
			}
			if s.progressed {
				// The server admitted (or resynced) us this session:
				// future hellos are rejoins, and the failure streak
				// resets — flapping forever is fine as long as rounds
				// keep landing.
				rejoining, failed, delay = true, 0, backoff
			}
		}
		if !opts.Rejoin {
			return sessErr
		}
		if failed++; attempts > 0 && failed > attempts {
			return fmt.Errorf("simnet: party %d gave up after %d failed reconnects: %w", id, failed-1, sessErr)
		}
		time.Sleep(delay + time.Duration(jr.Float64()*float64(delay/2)))
		if delay *= 2; delay > maxBackoff {
			delay = maxBackoff
		}
	}
}

// initParties sizes the per-party handshake tables.
func (f *Federation) initParties(numParties int) {
	f.byParty = make([]*CountingConn, numParties)
	f.metas = make([]fl.UpdateMeta, numParties)
	f.dists = make([][]float64, numParties)
	f.state = make([]partyState, numParties)
	f.resyncC = make([][]float64, numParties)
	f.codecs = make([]byte, numParties)
}

// negotiatedCodec resolves the wire chunk codec for a party from its
// hello: the configured codec when the peer advertises the bit in its
// codec-support mask, raw float64 otherwise — a peer that cannot decode
// the configured codec is admitted, it just rides the raw wire.
func (f *Federation) negotiatedCodec(h HelloMsg) byte {
	want := wireCodec(f.Cfg.Codec)
	if want == wireCodecF64 {
		return wireCodecF64
	}
	if h.Codecs&(1<<want) == 0 {
		return wireCodecF64
	}
	return want
}

// codecForParty returns the wire chunk codec negotiated with party id at
// its latest (re)admission, or raw float64 if it never registered.
func (f *Federation) codecForParty(id int) byte {
	f.memMu.Lock()
	defer f.memMu.Unlock()
	if id < 0 || id >= len(f.codecs) {
		return wireCodecF64
	}
	return f.codecs[id]
}

// down reports whether a party is out of the federation (suspect or
// evicted) — round-loop reads only; the rejoin path reads state under
// memMu instead.
func (f *Federation) down(id int) bool { return f.state[id] != partyAlive }

// evict removes a party from the federation: its conn is closed (ending
// any receiver goroutine still reading it, and any lingering party-side
// send) and later rounds drop it without contact. permanent=true marks a
// protocol violation — the party lands in partyEvicted and a rejoin is
// refused; permanent=false marks transport loss — partySuspect, restored
// by a rejoin hello. Called only from the round loop goroutine.
func (f *Federation) evict(id int, permanent bool, cause error) {
	f.memMu.Lock()
	if f.state[id] == partyAlive || (permanent && f.state[id] == partySuspect) {
		if permanent {
			f.state[id] = partyEvicted
		} else {
			f.state[id] = partySuspect
		}
	}
	f.memMu.Unlock()
	_ = f.byParty[id].Close()
	if f.OnEvict != nil {
		f.OnEvict(&EvictionError{Party: id, Permanent: permanent, Cause: cause})
	}
}

// queueRejoin validates a rejoin hello against the membership machine and
// parks the new connection until the next round boundary, where
// SyncMembership installs it. Called from admission handler goroutines;
// the federation may be mid-round, which is exactly why nothing is
// installed here. A queued rejoin for the same party is superseded (the
// party redialed again — perhaps its ResyncMsg wait timed out), and a
// rejoin while the party still looks alive is accepted too: the party
// knows its conn died before the server's next send would notice, and the
// swap at the round boundary closes the stale conn.
func (f *Federation) queueRejoin(c *CountingConn, h HelloMsg, numParties int) error {
	if h.ID < 0 || h.ID >= numParties {
		return fmt.Errorf("simnet: rejoin from party ID %d out of range [0,%d)", h.ID, numParties)
	}
	if f.Token != "" && subtle.ConstantTimeCompare([]byte(h.Token), []byte(f.Token)) != 1 {
		return fmt.Errorf("simnet: rejoining party %d presented a bad token", h.ID)
	}
	if h.N < 0 {
		return fmt.Errorf("simnet: rejoining party %d reported negative dataset size %d", h.ID, h.N)
	}
	f.memMu.Lock()
	defer f.memMu.Unlock()
	if f.byParty[h.ID] == nil {
		return fmt.Errorf("simnet: party %d has no session to rejoin", h.ID)
	}
	if f.state[h.ID] == partyEvicted {
		return &EvictionError{Party: h.ID, Permanent: true,
			Cause: fmt.Errorf("simnet: rejoin refused")}
	}
	for i, r := range f.rejoins {
		if r.h.ID == h.ID {
			_ = r.conn.Close()
			f.rejoins[i] = rejoinReq{conn: c, h: h}
			return nil
		}
	}
	f.rejoins = append(f.rejoins, rejoinReq{conn: c, h: h})
	return nil
}

// SyncMembership implements fl.Membership: called at the top of every
// round attempt, from the round loop, it installs the queued rejoins —
// ResyncMsg first, so the party's next frame is the round broadcast it
// now has the state to handle — and returns the live mask the sampler
// draws from. Rejoins land here and in the broadcast heal window (see
// healBroadcast), never while a round's receivers run, so a round's
// receiver set is immutable while the round runs.
func (f *Federation) SyncMembership(round int) []bool {
	f.installQueuedRejoins()
	live := make([]bool, len(f.state))
	for i, st := range f.state {
		live[i] = st == partyAlive
	}
	return live
}

// installQueuedRejoins drains the rejoin queue into the federation:
// ResyncMsg handshake on the fresh conn, then the party's tables are
// swapped to it and it is alive again. Returns the IDs restored. Round
// loop goroutine only.
func (f *Federation) installQueuedRejoins() []int {
	f.memMu.Lock()
	queued := f.rejoins
	f.rejoins = nil
	f.memMu.Unlock()
	var restored []int
	for _, r := range queued {
		id := r.h.ID
		rm := ResyncMsg{Round: f.roundsDone, ExpectTau: fl.PredictTau(f.Cfg, r.h.N)}
		f.memMu.Lock()
		rm.Control = f.resyncC[id]
		f.memMu.Unlock()
		enc, err := Marshal(rm)
		if err == nil {
			err = r.conn.Send(enc)
		}
		if err != nil {
			// The fresh conn died before the handshake completed; the party
			// stays suspect and may dial again.
			_ = r.conn.Close()
			continue
		}
		old := f.byParty[id]
		f.memMu.Lock()
		f.byParty[id] = r.conn
		f.metas[id] = fl.UpdateMeta{N: r.h.N, Tau: fl.PredictTau(f.Cfg, r.h.N)}
		f.dists[id] = sanitizeDist(r.h.LabelDist)
		f.state[id] = partyAlive
		f.codecs[id] = f.negotiatedCodec(r.h)
		f.conns = append(f.conns, r.conn)
		f.memMu.Unlock()
		if old != nil {
			_ = old.Close()
		}
		restored = append(restored, id)
	}
	return restored
}

// admit reads one hello from c and validates it against the federation:
// protocol version, ID in [0, numParties), no duplicate, matching token.
// On success the party's conn, aggregation meta and (sanitized) label
// distribution are registered under its ID. This is the serial path (the
// pipes handshake); the TCP accept loop reads hellos concurrently and
// calls register under its admission lock.
func (f *Federation) admit(c *CountingConn, numParties int) error {
	h, err := readHello(c)
	if err != nil {
		return err
	}
	return f.register(c, h, numParties)
}

// readHello reads and decodes one hello frame from c. Version skew and a
// bad magic byte surface here, from the codec, as descriptive errors —
// never as a misaligned decode of the fields behind the version byte.
func readHello(c *CountingConn) (HelloMsg, error) {
	raw, err := c.Recv()
	if err != nil {
		return HelloMsg{}, fmt.Errorf("simnet: hello recv: %w", err)
	}
	decoded, err := Unmarshal(raw)
	if err != nil {
		return HelloMsg{}, fmt.Errorf("simnet: hello decode: %w", err)
	}
	h, ok := decoded.(HelloMsg)
	if !ok {
		return HelloMsg{}, fmt.Errorf("simnet: expected hello, got %T", decoded)
	}
	return h, nil
}

// register validates a decoded hello and installs the party into the
// federation's tables. Callers on concurrent admission paths must hold
// the admission lock.
func (f *Federation) register(c *CountingConn, h HelloMsg, numParties int) error {
	if h.ID < 0 || h.ID >= numParties {
		return fmt.Errorf("simnet: party ID %d out of range [0,%d)", h.ID, numParties)
	}
	if f.byParty[h.ID] != nil {
		return fmt.Errorf("simnet: duplicate hello from party %d", h.ID)
	}
	if f.Token != "" && subtle.ConstantTimeCompare([]byte(h.Token), []byte(f.Token)) != 1 {
		return fmt.Errorf("simnet: party %d presented a bad token", h.ID)
	}
	if h.N < 0 {
		return fmt.Errorf("simnet: party %d reported negative dataset size %d", h.ID, h.N)
	}
	// memMu, not the admission lock, is what the rejoin path reads the
	// tables under — a party flapping during admission must not race its
	// own registration.
	f.memMu.Lock()
	f.byParty[h.ID] = c
	f.metas[h.ID] = fl.UpdateMeta{N: h.N, Tau: fl.PredictTau(f.Cfg, h.N)}
	f.dists[h.ID] = sanitizeDist(h.LabelDist)
	f.codecs[h.ID] = f.negotiatedCodec(h)
	f.memMu.Unlock()
	return nil
}

// registerRestored admits a rejoin hello as a first contact: a server
// restored from a snapshot has no live session for any party, so the
// redialing survivors of the previous incarnation arrive with
// Rejoin=true against empty tables. The party is registered and
// immediately sent the ResyncMsg it is waiting for — round stamp from
// the snapshot, its tracked SCAFFOLD c_i from the snapshot's
// PartyControl — so the rejoin handshake completes exactly as it would
// against a server that never died. On a failed handshake the
// registration is rolled back so a redial can try again.
func (f *Federation) registerRestored(c *CountingConn, h HelloMsg, numParties int) error {
	if err := f.register(c, h, numParties); err != nil {
		return err
	}
	rm := ResyncMsg{Round: f.roundsDone, ExpectTau: fl.PredictTau(f.Cfg, h.N)}
	f.memMu.Lock()
	rm.Control = f.resyncC[h.ID]
	f.memMu.Unlock()
	enc, err := Marshal(rm)
	if err == nil {
		err = c.Send(enc)
	}
	if err != nil {
		f.memMu.Lock()
		f.byParty[h.ID] = nil
		f.memMu.Unlock()
		return fmt.Errorf("simnet: restored-server resync to party %d: %w", h.ID, err)
	}
	return nil
}

// knownParty reports whether id currently has a registered conn.
func (f *Federation) knownParty(id int) bool {
	if id < 0 || id >= len(f.byParty) {
		return false
	}
	f.memMu.Lock()
	defer f.memMu.Unlock()
	return f.byParty[id] != nil
}

// helloFrameLimit bounds a hello frame: ID + size + a maxTokenLen token +
// a label distribution of up to ~128k classes fit comfortably in 1 MiB.
const helloFrameLimit = 1 << 20

// maxConcurrentHellos bounds how many accepted-but-unadmitted connections
// exist at once — and with them the in-flight hello reads — capping
// pre-admission fds, goroutines and buffer memory (at most 64 x
// helloFrameLimit = 64 MiB of the latter) no matter how many connections
// arrive; the rest queue in the kernel's listen backlog.
const maxConcurrentHellos = 64

// frameBound returns the most elements one chunk frame of a total-length
// stream may carry: the chunk size, or — for ChunkSize 0, which frames
// each vector whole — the stream length itself.
func frameBound(chunk, total int) int {
	if chunk > 0 {
		return chunk
	}
	return total
}

// recvLimitFor returns the per-frame receive bound for one round: the
// largest legitimate reply payload (one frame of frameBound elements)
// plus header slack.
func recvLimitFor(chunk, stateLen, ctrlLen int) uint32 {
	payload := uint64(frameBound(chunk, stateLen+ctrlLen)) * 8
	const slack = 64
	if payload+slack > maxMsg {
		return maxMsg
	}
	return uint32(payload + slack)
}

// sanitizeDist clamps a wire-supplied label distribution to finite,
// non-negative mass so a single party can never poison the stratified
// sampler's k-means with NaN or infinite coordinates. An empty dataset's
// (all-zero or empty) distribution passes through unchanged — the
// stratifier zero-pads dimensions.
func sanitizeDist(d []float64) []float64 {
	for i, v := range d {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			d[i] = 0
		}
	}
	return d
}

// handshake reads one HelloMsg from every conn and indexes conns and
// metadata by party ID — the trusted-pipe path (RunLocal), where every
// conn is a party this process launched, so any invalid hello is a
// programming error that fails the federation. The TCP accept path
// validates per-connection instead (see AcceptAndRun).
func (f *Federation) handshake(numParties int) error {
	f.initParties(numParties)
	for _, c := range f.conns {
		if err := f.admit(c, numParties); err != nil {
			return err
		}
	}
	return nil
}

// PartyMeta implements fl.Transport.
func (f *Federation) PartyMeta(id int) fl.UpdateMeta { return f.metas[id] }

// TrainRound implements fl.Transport: it broadcasts the round's global
// state to the sampled parties, then receives their replies concurrently —
// tolerating arrival in any order — and folds each into the aggregation
// the moment the next-in-sample-order update is available, so the server
// never buffers the whole round. Both directions are chunk streams of
// Cfg.ChunkSize frames (each vector whole at 0): the broadcast streams
// GlobalChunkMsg frames (interned by reference over in-process pipes, so
// K co-resident parties share one state buffer), and the reply fold
// holds at most a bounded window of frames per connection on top of the
// accumulator.
func (f *Federation) TrainRound(round int, sampled []int, global, control []float64, sink *fl.RoundSink) error {
	budget := 0
	if f.local && len(sampled) > 0 {
		// In-process parties all train concurrently once the global model
		// lands: split this run's core share (Cfg.Parallelism, GOMAXPROCS
		// by default) across them — the same oversubscription guard as
		// fl.Simulation, but carried per-party in the message instead of
		// any process-global knob.
		budget = tensor.Compute{Workers: f.Cfg.Parallelism}.Split(len(sampled)).Workers
	}
	gm := GlobalMsg{Round: round, State: global, Control: control, Budget: budget, Chunk: f.Cfg.ChunkSize}
	// Bound the replies to the largest legitimate frame for this round,
	// so a hostile length prefix is refused before the frame is read into
	// memory — the memory contract holds even against
	// admitted-but-malicious parties.
	limit := recvLimitFor(f.Cfg.ChunkSize, len(global), len(control))
	f.ctrlLen = len(control)
	bf := &globalFrames{gm: gm}
	failed := f.broadcast(gm, bf, sampled, limit)
	if len(failed) > 0 && f.RejoinGrace > 0 {
		f.healBroadcast(gm, bf, failed, limit)
	}
	if err := f.recvStreams(round, sampled, sink); err != nil {
		return err
	}
	f.roundsDone = round + 1
	return nil
}

// broadcast streams the round's global vectors to every live sampled
// party concurrently — one sender goroutine per connection, so a slow
// consumer delays only its own stream, never the whole broadcast. A
// party whose stream cannot be delivered is evicted (rounds tolerate
// party loss; its receiver will surface the closed conn and the fold
// drops it). Evictions are applied only after every sender has
// finished, so the fold's upfront dead-party reads never race a sender.
// The IDs whose broadcast failed are returned for the heal window.
func (f *Federation) broadcast(gm GlobalMsg, bf *globalFrames, sampled []int, limit uint32) []int {
	var wg sync.WaitGroup
	errs := make([]error, len(sampled))
	for j, id := range sampled {
		if f.down(id) {
			continue
		}
		c := f.byParty[id]
		c.SetRecvLimit(limit)
		wg.Add(1)
		go func(j, id int, c *CountingConn) {
			defer wg.Done()
			errs[j] = f.sendGlobal(c, gm, bf, f.codecForParty(id))
		}(j, id, c)
	}
	wg.Wait()
	var failed []int
	for j, id := range sampled {
		if errs[j] != nil && !f.down(id) {
			// A failed send is transport loss: the party may rejoin.
			f.evict(id, false, errs[j])
			failed = append(failed, id)
		}
	}
	return failed
}

// healBroadcast is the RejoinGrace window: the round's broadcast failed
// toward the given parties (now suspect, conns closed), so poll the
// rejoin queue for up to the grace period, install any rejoins that land
// and resend the broadcast on the fresh conns. A healed party rejoins
// the round as if nothing happened — it never saw a complete broadcast,
// so it trains exactly once, and the fold proceeds with the full sample:
// the aggregation is bitwise what it would have been without the fault.
// Parties that do not come back in time stay suspect and are dropped by
// the fold as usual. Round loop goroutine only.
func (f *Federation) healBroadcast(gm GlobalMsg, bf *globalFrames, failed []int, limit uint32) {
	deadline := time.Now().Add(f.RejoinGrace)
	poll := f.RejoinGrace / 50
	if poll < time.Millisecond {
		poll = time.Millisecond
	}
	want := make(map[int]bool, len(failed))
	for _, id := range failed {
		want[id] = true
	}
	for len(want) > 0 && time.Now().Before(deadline) {
		time.Sleep(poll)
		for _, id := range f.installQueuedRejoins() {
			if !want[id] {
				continue // a different party's rejoin: installed, waits for the next round
			}
			c := f.byParty[id]
			c.SetRecvLimit(limit)
			if err := f.sendGlobal(c, gm, bf, f.codecForParty(id)); err != nil {
				f.evict(id, false, err)
				continue
			}
			delete(want, id)
		}
	}
}

// globalFrames is a round broadcast's encode-once frame cache: the first
// serializing sender for each negotiated wire codec marshals that
// codec's frame set exactly once, and all later senders of the same
// codec (the per-party broadcast goroutines, the heal window's resends,
// the async hub's per-party senders) ship the same immutable byte
// slices. Server encode CPU stays flat in K — a serialized round
// broadcast costs one encode pass per distinct codec in the federation,
// no matter how many TCP parties receive it — mirroring the pipe-side
// GlobalRefMsg interning one layer down. Safe for concurrent use; the
// slices must never be mutated after publication (tcpConn writes them
// out, chanConn copies them).
type globalFrames struct {
	gm   GlobalMsg
	sets [4]codecFrames // indexed by wire codec
}

// codecFrames is one codec's lazily encoded frame set within a
// globalFrames cache.
type codecFrames struct {
	once sync.Once
	fr   [][]byte
	err  error
}

// frames returns the shared serialized broadcast for one wire codec,
// encoding it on first use so rounds whose conns all intern (all-pipe
// f64 federations) never pay for a serialization nobody reads.
func (b *globalFrames) frames(codec byte) ([][]byte, error) {
	if int(codec) >= len(b.sets) {
		return nil, fmt.Errorf("simnet: unknown wire codec %d", codec)
	}
	s := &b.sets[codec]
	s.once.Do(func() { s.fr, s.err = encodeGlobalFrames(b.gm, codec) })
	return s.fr, s.err
}

// encodeGlobalFrames serializes one round broadcast — state first, then
// SCAFFOLD's control, in frames of gm.Chunk elements never crossing the
// seam — in the given wire codec. Quantized codecs encode each chunk independently with its own
// scale (the chunk frame is the quantization unit).
func encodeGlobalFrames(gm GlobalMsg, codec byte) ([][]byte, error) {
	total := len(gm.State) + len(gm.Control)
	var fr [][]byte
	var scratch []byte
	err := fl.ChunkStream(gm.State, gm.Control, gm.Chunk, func(off int, c []float64) error {
		last := off+len(c) == total
		var enc []byte
		var err error
		if codec == wireCodecF64 {
			enc, err = Marshal(GlobalChunkMsg{
				Round: gm.Round, Offset: off, Total: total, CtrlLen: len(gm.Control),
				Budget: gm.Budget, Chunk: gm.Chunk, Last: last,
				Payload: c,
			})
		} else {
			var payload []byte
			var scale float64
			payload, scale, err = quantizeChunk(scratch[:0], codec, c)
			if err == nil {
				scratch = payload // Marshal copies the payload; reuse the scratch
				enc, err = Marshal(GlobalChunkQMsg{
					Round: gm.Round, Offset: off, Total: total, CtrlLen: len(gm.Control),
					Budget: gm.Budget, Chunk: gm.Chunk, Last: last,
					Codec: codec, Count: len(c), Scale: scale, Payload: payload,
				})
			}
		}
		if err != nil {
			return err
		}
		fr = append(fr, enc)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return fr, nil
}

// sendGlobal ships one round broadcast to one party: published by
// reference when the conn supports interning AND the party negotiated
// the raw codec (in-process pipes — the party then reads the server's
// buffer directly, so K parties hold one copy), and otherwise as the
// round's shared encode-once frame set for the party's codec. Quantized
// pipes deliberately serialize for real: the measured CommBytes then
// reflects the quantized wire, and the quantization error a party sees
// is identical across transports.
func (f *Federation) sendGlobal(c *CountingConn, gm GlobalMsg, bf *globalFrames, codec byte) error {
	if codec == wireCodecF64 {
		if handled, err := c.SendGlobalRef(gm); handled {
			return err
		}
	}
	frames, err := bf.frames(codec)
	if err != nil {
		return err
	}
	for _, fr := range frames {
		if err := c.Send(fr); err != nil {
			return err
		}
	}
	return nil
}

// chunkFrame is one decoded reply frame in flight between a connection's
// receiver goroutine and the fold loop. buf is the pooled tensor backing
// msg.Chunk; whoever discards the frame returns it to the shared pool.
type chunkFrame struct {
	msg UpdateChunkMsg
	// codec is the wire codec the frame arrived in; the stager enforces
	// that it never changes mid-stream. msg.Chunk is always float64 —
	// quantized payloads were dequantized into buf at decode.
	codec byte
	buf   *tensor.Tensor
	err   error
	// fatal classifies err: true for a decode failure (the party framed
	// garbage — a protocol violation, permanent eviction), false for
	// transport loss (conn death or a RoundTimeout expiry — the party may
	// rejoin).
	fatal bool
}

// foldGate bounds how far past the fold cursor the staging goroutines
// may run: stager j may assemble its stream only once j < cursor +
// ahead, so at most `ahead` complete streams are staged beyond the one
// being folded — O(FoldAhead x stream) transient pool memory, no matter
// how out-of-order the arrivals are. advance moves the cursor one slot
// (folded, dropped, or dead — every slot counts); abort releases every
// waiter when the round dies.
type foldGate struct {
	mu      sync.Mutex
	cond    *sync.Cond
	cursor  int
	ahead   int
	aborted bool
}

func newFoldGate(ahead int) *foldGate {
	g := &foldGate{ahead: ahead}
	if g.ahead < 1 {
		g.ahead = 1
	}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// waitTurn blocks until slot j is within the staging window (always
// immediate for the cursor slot itself) and reports false when the round
// aborted instead.
func (g *foldGate) waitTurn(j int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for j >= g.cursor+g.ahead && !g.aborted {
		g.cond.Wait()
	}
	return !g.aborted
}

func (g *foldGate) advance() {
	g.mu.Lock()
	g.cursor++
	g.mu.Unlock()
	g.cond.Broadcast()
}

func (g *foldGate) abort() {
	g.mu.Lock()
	g.aborted = true
	g.mu.Unlock()
	g.cond.Broadcast()
}

// stagedStream is one party's fully assembled (or failed) reply stream,
// handed from its staging goroutine to the fold loop. buf holds the
// complete stream values [0, total); whoever discards it returns it to
// the shared pool.
type stagedStream struct {
	buf     *tensor.Tensor
	trailer fl.Update
	err     error
	fatal   bool
}

var errRoundAborted = fmt.Errorf("simnet: round aborted")

// recvStreams receives the sampled parties' chunk streams concurrently —
// each connection feeding a bounded frame window into a per-party
// staging goroutine — and folds the assembled streams in sampled order.
// Staging is what fixes the serial straggler drain: every party's stream
// is validated and assembled the moment its frames arrive (subject to
// the fold-ahead window), so one slow party delays the fold by only its
// own stream, never by holding the sample-order cursor while faster
// later-slot parties sit buffered. The fold itself stays in sampled
// order over whole assembled streams, so the aggregation's
// floating-point sequence is bitwise what the serial drain produced. A
// party whose stream arrives malformed (or whose conn dies mid-stream)
// is dropped from the round, not fatal to it.
func (f *Federation) recvStreams(round int, sampled []int, sink *fl.RoundSink) error {
	frames := make([]chan chunkFrame, len(sampled))
	staged := make([]chan stagedStream, len(sampled))
	window := f.window()
	gate := newFoldGate(f.Cfg.FoldAhead)
	total := sink.StreamLen()
	stateLen := total - f.ctrlLen
	for j, id := range sampled {
		if f.down(id) {
			continue // no receiver; the fold drops this slot upfront
		}
		frames[j] = make(chan chunkFrame, window)
		staged[j] = make(chan stagedStream, 1)
		go func(j, id int) {
			defer close(frames[j])
			conn := f.byParty[id]
			for {
				if f.RoundTimeout > 0 {
					_ = conn.SetReadDeadline(time.Now().Add(f.RoundTimeout))
				}
				raw, err := conn.Recv()
				if err != nil {
					frames[j] <- chunkFrame{err: fmt.Errorf("simnet: recv from party %d: %w", id, err)}
					return
				}
				buf := tensor.Shared.GetRaw(tensor.Float64, frameBound(f.Cfg.ChunkSize, total))
				m, codec, err := decodeUpdateFrameInto(raw, buf.Data())
				if err != nil {
					tensor.Shared.Put(buf)
					frames[j] <- chunkFrame{err: fmt.Errorf("simnet: bad frame from party %d: %w", id, err), fatal: true}
					return
				}
				frames[j] <- chunkFrame{msg: m, codec: codec, buf: buf}
				if m.Last {
					return
				}
			}
		}(j, id)
		go f.stageChunkStream(j, id, round, total, sink.Meta(j), frames[j], staged[j], gate)
	}
	// fatal aborts the round: release every stager still waiting on the
	// gate and recycle whatever the in-flight ones deliver, so no
	// goroutine or pooled buffer outlives the round.
	fatal := func(from int, err error) error {
		gate.abort()
		for _, ch := range staged[from:] {
			if ch == nil {
				continue
			}
			go func(ch chan stagedStream) {
				if st := <-ch; st.buf != nil {
					tensor.Shared.Put(st.buf)
				}
			}(ch)
		}
		return err
	}
	for j, id := range sampled {
		if f.down(id) {
			if err := sink.Drop(j, fmt.Errorf("simnet: party %d left the federation in an earlier round", id)); err != nil {
				return fatal(j+1, err)
			}
			gate.advance()
			continue
		}
		st := <-staged[j]
		if st.err != nil {
			// The stager classified the failure: fatal for the party's own
			// framing (protocol violation, permanent), non-fatal for
			// transport loss. Eviction stays on the round loop goroutine.
			f.evict(id, st.fatal, st.err)
			if err := sink.Drop(j, st.err); err != nil {
				return fatal(j+1, err)
			}
			gate.advance()
			continue
		}
		data := st.buf.Data()[:total]
		err := sink.AddChunk(j, 0, data)
		if err == nil {
			err = sink.FinishUpdate(j, st.trailer)
		}
		if err != nil {
			tensor.Shared.Put(st.buf)
			f.evict(id, true, err)
			if derr := sink.Drop(j, err); derr != nil {
				return fatal(j+1, derr)
			}
			gate.advance()
			continue
		}
		f.applyControlDelta(id, data[stateLen:])
		tensor.Shared.Put(st.buf)
		gate.advance()
	}
	return nil
}

// stageChunkStream assembles one party's frame stream into a pooled
// buffer, validating every frame as it lands (see uplinkStream.accept),
// and hands the fold loop either the complete stream or the classified
// failure. It always sends exactly one stagedStream on out, then drains
// (and recycles) any frames its receiver still forwards; the receiver
// stops at the Last marker or — forced by the eviction's conn close at
// the latest — on conn error, so a re-sampled conn can never end up with
// two concurrent readers.
func (f *Federation) stageChunkStream(j, id, round, total int, meta fl.UpdateMeta, frames chan chunkFrame, out chan stagedStream, gate *foldGate) {
	finish := func(st stagedStream) {
		out <- st
		for fr := range frames {
			if fr.buf != nil {
				tensor.Shared.Put(fr.buf)
			}
		}
	}
	if !gate.waitTurn(j) {
		finish(stagedStream{err: errRoundAborted})
		return
	}
	buf := tensor.Shared.GetRaw(tensor.Float64, total)
	data := buf.Data()
	stream := uplinkStream{id: id, round: round, total: total, bound: frameBound(f.Cfg.ChunkSize, total), meta: meta}
	fail := func(err error, fatal bool) {
		tensor.Shared.Put(buf)
		finish(stagedStream{err: err, fatal: fatal})
	}
	for fr := range frames {
		if fr.err != nil {
			fail(fr.err, fr.fatal)
			return
		}
		m := fr.msg
		last, err := stream.accept(m, fr.codec, data)
		tensor.Shared.Put(fr.buf)
		if err != nil {
			// The party's own framing is at fault: protocol violation,
			// permanent.
			fail(err, true)
			return
		}
		if last {
			finish(stagedStream{buf: buf, trailer: fl.Update{N: m.N, Tau: m.Tau, TrainLoss: m.TrainLoss}})
			return
		}
	}
	// The receiver closed the channel without a Last marker or an error
	// frame — it cannot, but fail safe rather than hang the round open.
	fail(fmt.Errorf("simnet: party %d chunk stream ended early", id), false)
}

// uplinkStream is the one validation of a party's update stream, shared
// by the synchronous stager and the async receiver so the two can never
// drift: every frame must carry the expected round, stream length and
// trailer meta, stay within the frame bound, continue at the cursor
// without overflowing, mark Last exactly on the final frame, make
// progress unless it is the last, and keep the wire codec of the
// stream's first frame.
type uplinkStream struct {
	id, round int
	total     int
	bound     int // most elements one frame may carry (frameBound)
	meta      fl.UpdateMeta
	done      int // stream cursor: elements accepted so far
	codec     byte
	sawFrame  bool
}

// accept validates frame m, which arrived in wire codec codec, and
// copies its payload into data at the stream cursor (a no-op when the
// frame was decoded in place). It reports whether m completed the
// stream. Every error is the party's own framing at fault.
func (s *uplinkStream) accept(m UpdateChunkMsg, codec byte, data []float64) (last bool, err error) {
	id := s.id
	switch {
	case s.sawFrame && codec != s.codec:
		// The wire codec is a stream-level property: a party that switches
		// encodings mid-stream is framing garbage, exactly like a
		// mid-stream header change.
		err = fmt.Errorf("simnet: party %d switched wire codec %s -> %s mid-stream",
			id, codecName(s.codec), codecName(codec))
	case m.Round != s.round:
		err = fmt.Errorf("simnet: party %d sent a frame for round %d, expected %d", id, m.Round, s.round)
	case m.Total != s.total:
		err = fmt.Errorf("simnet: party %d declared stream length %d, expected %d", id, m.Total, s.total)
	case m.N != s.meta.N || m.Tau != s.meta.Tau:
		// Checked on every frame — this is why the trailer metadata
		// repeats — so a mismatched update is refused on its first frame,
		// not after its whole stream was staged.
		err = fmt.Errorf("simnet: party %d frame meta (n=%d tau=%d) does not match expected (n=%d tau=%d)",
			id, m.N, m.Tau, s.meta.N, s.meta.Tau)
	case len(m.Chunk) > s.bound:
		// The negotiated chunk size is the memory contract: a frame above
		// it (up to one whole state vector) would reintroduce the
		// O(conns x state) buffering chunking exists to bound.
		err = fmt.Errorf("simnet: party %d sent a %d-element frame, chunk size is %d", id, len(m.Chunk), s.bound)
	case m.Offset != s.done:
		err = fmt.Errorf("simnet: party %d sent frame offset %d, expected %d", id, m.Offset, s.done)
	case m.Offset+len(m.Chunk) > s.total:
		err = fmt.Errorf("simnet: party %d frame [%d,%d) overflows stream length %d", id, m.Offset, m.Offset+len(m.Chunk), s.total)
	case m.Last != (m.Offset+len(m.Chunk) == s.total):
		err = fmt.Errorf("simnet: party %d frame [%d,%d) of %d has inconsistent last marker", id, m.Offset, m.Offset+len(m.Chunk), s.total)
	case len(m.Chunk) == 0 && !m.Last:
		// An honest stream never frames zero elements mid-stream;
		// accepting one would let a party occupy its slot forever without
		// progressing its offset.
		err = fmt.Errorf("simnet: party %d sent an empty non-final frame at offset %d", id, m.Offset)
	}
	if err != nil {
		return false, err
	}
	s.codec, s.sawFrame = codec, true
	copy(data[s.done:], m.Chunk)
	s.done += len(m.Chunk)
	return m.Last, nil
}

// applyControlDelta advances the party's tracked SCAFFOLD control variate
// by one accepted upload: c_i += DeltaC. Only called after FinishUpdate
// accepted the stream, so the tracked c_i tracks exactly the uploads the
// aggregation counted. memMu, because SyncMembership reads resyncC from
// the round loop while queueRejoin's callers probe membership state.
func (f *Federation) applyControlDelta(id int, delta []float64) {
	if len(delta) == 0 {
		return
	}
	f.memMu.Lock()
	if f.resyncC[id] == nil {
		f.resyncC[id] = make([]float64, len(delta))
	}
	c := f.resyncC[id]
	for k, d := range delta {
		c[k] += d
	}
	f.memMu.Unlock()
}

// RoundBytes reports the bytes moved since the previous call, so the
// engine's CommBytes is measured from the actual serialized traffic
// (implements the engine's byteMeter).
func (f *Federation) RoundBytes() int64 {
	total := f.totalBytes()
	delta := total - f.prevBytes
	f.prevBytes = total
	return delta
}

// serve runs the server side of the protocol over the federation's conns:
// hello handshake (unless the accept loop already performed it), then the
// shared round engine to completion.
func (f *Federation) serve(numParties int) (*fl.Result, error) {
	defer func() {
		// Always attempt a clean shutdown of every party.
		if msg, err := Marshal(ShutdownMsg{}); err == nil {
			for _, c := range f.conns {
				_ = c.Send(msg)
			}
		}
		for _, c := range f.conns {
			_ = c.Close()
		}
		// Rejoins still parked when the run ends never made it into conns;
		// close them too so no rejoining party hangs on a dead server.
		f.memMu.Lock()
		for _, r := range f.rejoins {
			_ = r.conn.Close()
		}
		f.rejoins = nil
		f.memMu.Unlock()
	}()
	if f.byParty == nil {
		if err := f.handshake(numParties); err != nil {
			return nil, err
		}
	}
	// The hello handshake is setup traffic, not round traffic: reset the
	// byte watermark so round 0's measured CommBytes covers only the
	// round's own messages, matching the analytic model.
	f.prevBytes = f.totalBytes()
	cfg := f.Cfg
	root := rng.New(cfg.Seed)
	initModel := nn.Build(f.Spec, root.Split())
	server := fl.NewServer(cfg, initModel.State(), initModel.ParamCount(), numParties)
	eval := fl.NewEvaluator(f.Spec, f.Test)
	engine, err := fl.NewEngine(cfg, server, eval, numParties, root.Split(), f.dists)
	if err != nil {
		return nil, err
	}
	if f.Resume != nil {
		if err := engine.Restore(f.Resume); err != nil {
			return nil, err
		}
	} else if f.InitialState != nil {
		if err := engine.SetInitialState(f.InitialState); err != nil {
			return nil, err
		}
	}
	if f.Checkpoint != nil {
		engine.CheckpointEvery = f.CheckpointEvery
		engine.Checkpoint = func(snap *fl.FederationSnapshot) error {
			// The engine snapshots everything it owns; the transport adds
			// the per-party resync controls a restored server needs to
			// answer rejoins.
			f.memMu.Lock()
			snap.PartyControl = make([][]float64, len(f.resyncC))
			for i, c := range f.resyncC {
				if c != nil {
					snap.PartyControl[i] = append([]float64(nil), c...)
				}
			}
			f.memMu.Unlock()
			return f.Checkpoint(snap)
		}
	}
	if cfg.AsyncBuffer > 0 {
		return engine.RunAsync(f)
	}
	return engine.Run(f)
}

func (f *Federation) totalBytes() int64 {
	// memMu: conns grows when a rejoin is installed, and in async mode
	// the per-flush byte accounting reads from receiver goroutines.
	f.memMu.Lock()
	defer f.memMu.Unlock()
	var total int64
	for _, c := range f.conns {
		total += c.Sent() + c.Received()
	}
	return total
}
