// Package simnet runs a federation over an explicit message-passing
// transport — in-memory channel pairs or real TCP sockets — with binary
// serialization of every model exchange. Where package fl simulates the
// algorithm with function calls and analytic byte accounting, simnet moves
// actual bytes, so the communication costs reported for Table IV are
// measured rather than computed, and the server/party protocol is
// exercised end to end.
package simnet

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Message type tags. Tags 1 and 2 belonged to the whole-message
// GlobalMsg/UpdateMsg frames retired in protocol version 5; they stay
// unassigned so a stray old frame decodes as an unknown tag, never as
// something else.
const (
	msgShutdown     byte = 3
	msgHello        byte = 4
	msgUpdateChunk  byte = 5
	msgGlobalChunk  byte = 6
	msgGlobalRef    byte = 7
	msgResync       byte = 8
	msgUpdateChunkQ byte = 9
	msgGlobalChunkQ byte = 10
)

// The hello opens with a fixed magic byte and a protocol version, so a
// peer from a different build generation is turned away with a clean
// reason at admission instead of producing a misaligned decode deeper in
// the round. The magic distinguishes "not this protocol at all" (a stray
// client, a pre-versioning build whose hello began with its ID) from
// version skew; the version gates every message layout after the hello,
// so any PR that changes a frame must bump ProtoVersion.
const (
	protoMagic byte = 0xF7
	// ProtoVersion is the newest wire protocol generation this build
	// speaks. Version 1 covers the versioned hello itself plus the
	// chunked downlink frames (GlobalChunkMsg/GlobalRefMsg); version 2
	// adds the hello's rejoin flag and the ResyncMsg rejoin handshake;
	// version 3 adds the hello's min-version byte for range negotiation;
	// version 4 adds the hello's codec-support mask and the quantized
	// chunk frames (UpdateChunkQMsg/GlobalChunkQMsg); version 5 retires
	// the whole-message GlobalMsg/UpdateMsg frames, so every round moves
	// state as a chunk stream (ChunkSize 0 frames each vector whole).
	ProtoVersion byte = 5
	// MinProtoVersion is the oldest generation this build still admits.
	// The hello carries the peer's own [min,max] range and the server
	// admits when the ranges overlap, so a future generation that still
	// speaks this one federates during a rolling upgrade. Nothing older
	// than version 5 is admitted: earlier peers may send whole-message
	// frames this build no longer decodes.
	MinProtoVersion byte = 5
)

// VersionError reports a hello whose supported protocol range has no
// overlap with this build's. Admission surfaces it through
// ServerListener.OnReject so the operator sees exactly which side is
// stale. Hellos older than version 3 carry no min-version byte, so for
// such a peer GotMin is whatever byte followed its version; the
// rejection stands either way.
type VersionError struct {
	Got    byte // the peer's newest supported version
	GotMin byte // the peer's oldest supported version
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("simnet: peer speaks protocol versions [%d,%d], this build speaks [%d,%d]: no overlap",
		e.GotMin, e.Got, MinProtoVersion, ProtoVersion)
}

// maxTokenLen bounds the handshake token on the wire so a hostile hello
// cannot demand an arbitrary allocation.
const maxTokenLen = 4096

// GlobalMsg is a round broadcast in memory: the global model state and,
// for SCAFFOLD, the server control variate. It never crosses the wire
// whole — the server frames it as a GlobalChunkMsg (or GlobalChunkQMsg)
// stream, or interns it over a pipe behind a GlobalRefMsg descriptor.
type GlobalMsg struct {
	Round   int
	State   []float64
	Control []float64 // nil unless SCAFFOLD
	// Budget is the kernel compute budget (max goroutines per kernel) the
	// party should train under this round; 0 means uncapped. The server
	// sets it when parties share its process, so K concurrently-training
	// parties split the machine instead of oversubscribing it.
	Budget int
	// Chunk is the streaming chunk size in float64 elements the server
	// frames its broadcast with and wants replies framed with; 0 frames
	// each vector as a single chunk. The server's value is authoritative
	// — parties follow it, so both sides of a deployment never need
	// matching flags.
	Chunk int
}

// HelloMsg is the party-to-server handshake sent once at connect: the
// party's identity, an optional shared-secret token, and what the server
// needs for weighting (dataset size) and stratified sampling (label
// distribution). On the wire it opens with the protocol magic, the
// newest version the party speaks and the oldest version it still
// speaks, so both sides can negotiate across a rolling upgrade. Marshal
// stamps the build's ProtoVersion/MinProtoVersion when the fields are
// zero, so ordinary callers never set them (tests craft skewed hellos by
// setting them explicitly).
type HelloMsg struct {
	ID        int
	N         int
	Token     string
	LabelDist []float64
	Version   byte
	// MinVersion is the oldest protocol generation the party still
	// speaks; Marshal stamps MinProtoVersion when it is zero.
	MinVersion byte
	// Rejoin marks a re-hello from a party that was admitted earlier and
	// lost its connection: the server re-admits it under its old ID (unless
	// it was evicted for a protocol violation) and replies with a ResyncMsg
	// before the next round broadcast.
	Rejoin bool
	// Codecs is the bitmask of wire chunk codecs the sender can decode
	// (bit c set ⇔ wire codec c; see the quant.go identifiers). Marshal
	// stamps the build's full support mask when the field is zero.
	Codecs byte
}

// ResyncMsg is the server-to-party reply to a rejoin hello: everything a
// reconnecting party needs to continue as if it never left. Round is the
// last completed round; ExpectTau is the per-round local step count the
// server will validate the party's updates against (FedNova bookkeeping);
// Control is the party's own SCAFFOLD control variate c_i as tracked by
// the server from the party's past control-delta uploads (nil for other
// algorithms), so even a party that lost its local state — a restarted
// process — resumes with the exact c_i it had. MOON's previous-round
// local model is deliberately NOT replayed: the server never stores
// per-party model states (that would be O(parties x state) memory), so a
// rejoined party that lost it cold-starts from the next global model,
// which is MOON's documented first-round behavior.
type ResyncMsg struct {
	Round     int
	ExpectTau int
	Control   []float64
}

// UpdateChunkMsg carries one frame of a party's round reply: a
// consecutive slice of the flattened update stream (the state-length
// delta followed, for SCAFFOLD, by the parameter-length control delta).
// Offset indexes the combined stream, Total is its full length, and Last
// marks the final frame. N/Tau/TrainLoss repeat the update's trailer
// metadata on every frame (16 bytes — negligible against the payload) so
// the server validates a stream against its expected meta on the first
// frame, refusing a mismatched update before any of it is staged.
type UpdateChunkMsg struct {
	Round     int
	Offset    int
	Total     int
	N         int
	Tau       int
	Last      bool
	TrainLoss float64
	Chunk     []float64
}

// GlobalChunkMsg carries one frame of the server's round broadcast: a
// consecutive slice of the flattened downlink stream (the
// state vector followed, for SCAFFOLD, by the server control variate),
// symmetric to the uplink's UpdateChunkMsg. Offset indexes the combined
// stream, Total is its full length and CtrlLen the control suffix, so the
// party can split the reassembled buffer without a separate header frame.
// Budget and Chunk repeat the round metadata on every frame (8 bytes —
// negligible against the payload) so the party validates the stream's
// shape on its first frame.
type GlobalChunkMsg struct {
	Round   int
	Offset  int
	Total   int
	CtrlLen int
	Budget  int
	Chunk   int
	Last    bool
	Payload []float64
}

// UpdateChunkQMsg is the quantized variant of UpdateChunkMsg: the same
// stream header (offsets and Total count float64 elements of the logical
// stream, so reassembly and validation are framing-independent) with the
// payload carried as Codec-encoded bytes plus the chunk's dequantization
// scale. Count is the payload's element count — explicit because int4
// packs two elements per byte, so the byte length alone is ambiguous for
// odd counts. Frames of one stream must all use one codec.
type UpdateChunkQMsg struct {
	Round     int
	Offset    int
	Total     int
	N         int
	Tau       int
	Last      bool
	TrainLoss float64
	Codec     byte
	Count     int
	Scale     float64
	Payload   []byte
}

// GlobalChunkQMsg is the quantized variant of GlobalChunkMsg, with the
// same header semantics and the payload carried as Codec-encoded bytes
// plus the chunk's dequantization scale (see UpdateChunkQMsg for why
// Count is explicit).
type GlobalChunkQMsg struct {
	Round   int
	Offset  int
	Total   int
	CtrlLen int
	Budget  int
	Chunk   int
	Last    bool
	Codec   byte
	Count   int
	Scale   float64
	Payload []byte
}

// validateQuantPayload checks the invariants every quantized frame must
// satisfy on both encode and decode: a genuinely quantized codec (raw
// float64 streams use the raw frame types — one encoding per stream, so
// a mid-stream format change is an error, not a surprise) and a payload
// of exactly the codec's size for Count elements.
func validateQuantPayload(codec byte, count int, payload []byte) error {
	switch codec {
	case wireCodecF32, wireCodecInt8, wireCodecInt4:
	default:
		return fmt.Errorf("simnet: quantized frame with non-quantized codec %s", codecName(codec))
	}
	want, err := quantizedLen(codec, count)
	if err != nil {
		return err
	}
	if len(payload) != want {
		return fmt.Errorf("simnet: quantized payload of %d bytes for %d %s elements, want %d",
			len(payload), count, codecName(codec), want)
	}
	return nil
}

// GlobalRefMsg is the interned form of a round broadcast used between the
// ends of an in-process pipe: the round's state and control vectors are
// published by reference through the pipe's shared slot (see
// Pipe/SendGlobalRef) and only this small descriptor crosses the channel,
// so K co-resident parties read one shared copy of the global state
// instead of decoding K private ones. StateLen/CtrlLen let the receiver
// cross-check the slot against the frame.
type GlobalRefMsg struct {
	Round    int
	StateLen int
	CtrlLen  int
	Budget   int
	Chunk    int
}

// ShutdownMsg tells a party the run is over.
type ShutdownMsg struct{}

// globalChunkHeader is a raw GlobalChunkMsg's size without its payload:
// tag + six uint32 header fields + last marker + payload length prefix.
const globalChunkHeader = 1 + 6*4 + 1 + 4

// globalFramesWireSize is the serialized size of a raw f64 broadcast's
// frame set: the GlobalChunkMsg stream that fl.ChunkStream frames from
// vectors of the given lengths at the given chunk size. Interned pipe
// broadcasts (SendGlobalRef) account exactly this, so measured CommBytes
// reports the bytes the same federation moves over TCP rather than the
// in-process shortcut's.
func globalFramesWireSize(stateLen, ctrlLen, chunk int) int64 {
	var size int64
	for _, n := range [2]int{stateLen, ctrlLen} {
		if n == 0 {
			continue // ChunkStream frames nothing for an empty vector
		}
		per := frameBound(chunk, n)
		frames := (n + per - 1) / per
		size += int64(frames)*globalChunkHeader + 8*int64(n)
	}
	return size
}

func appendUint32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendFloats(b []byte, v []float64) []byte {
	b = appendUint32(b, uint32(len(v)))
	for _, f := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b
}

func appendString(b []byte, s string) []byte {
	b = appendUint32(b, uint32(len(s)))
	return append(b, s...)
}

func appendBytes(b []byte, p []byte) []byte {
	b = appendUint32(b, uint32(len(p)))
	return append(b, p...)
}

// readBytes decodes a length-prefixed byte payload as a view into b —
// zero-copy, bounded by the frame itself (the length is checked against
// the remaining bytes before anything is touched, so a hostile prefix
// cannot demand an allocation).
func readBytes(b []byte) ([]byte, []byte, error) {
	n, b, err := readUint32(b)
	if err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, b, nil
	}
	if len(b) < int(n) {
		return nil, nil, fmt.Errorf("simnet: truncated byte payload (%d of %d bytes)", len(b), n)
	}
	return b[:n:n], b[n:], nil
}

func readUint32(b []byte) (uint32, []byte, error) {
	if len(b) < 4 {
		return 0, nil, fmt.Errorf("simnet: truncated uint32")
	}
	return binary.LittleEndian.Uint32(b), b[4:], nil
}

func readFloats(b []byte) ([]float64, []byte, error) {
	return readFloatsInto(nil, b)
}

// readFloatsInto decodes a length-prefixed float vector, reusing buf's
// backing array when it has the capacity (the pooled-chunk fast path) and
// allocating otherwise.
func readFloatsInto(buf []float64, b []byte) ([]float64, []byte, error) {
	n, b, err := readUint32(b)
	if err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, b, nil
	}
	if len(b) < int(n)*8 {
		return nil, nil, fmt.Errorf("simnet: truncated float vector (%d of %d bytes)", len(b), n*8)
	}
	out := buf
	if cap(out) < int(n) {
		out = make([]float64, n)
	}
	out = out[:n]
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out, b[int(n)*8:], nil
}

func readString(b []byte) (string, []byte, error) {
	n, b, err := readUint32(b)
	if err != nil {
		return "", nil, err
	}
	if n > maxTokenLen {
		return "", nil, fmt.Errorf("simnet: string of %d bytes exceeds limit", n)
	}
	if len(b) < int(n) {
		return "", nil, fmt.Errorf("simnet: truncated string (%d of %d bytes)", len(b), n)
	}
	return string(b[:n]), b[n:], nil
}

// Marshal encodes a message. Supported types: HelloMsg, UpdateChunkMsg,
// GlobalChunkMsg, UpdateChunkQMsg, GlobalChunkQMsg, GlobalRefMsg,
// ResyncMsg, ShutdownMsg.
func Marshal(msg any) ([]byte, error) {
	return AppendMarshal(nil, msg)
}

// AppendMarshal encodes msg appended to dst (which may be nil) and
// returns the extended slice — the allocation-free path for per-chunk
// framing, where the caller recycles one buffer across frames.
func AppendMarshal(dst []byte, msg any) ([]byte, error) {
	switch m := msg.(type) {
	case HelloMsg:
		if len(m.Token) > maxTokenLen {
			return nil, fmt.Errorf("simnet: token of %d bytes exceeds limit", len(m.Token))
		}
		v := m.Version
		if v == 0 {
			v = ProtoVersion
		}
		minv := m.MinVersion
		if minv == 0 {
			minv = MinProtoVersion
		}
		codecs := m.Codecs
		if codecs == 0 {
			codecs = codecSupportMask
		}
		rejoin := byte(0)
		if m.Rejoin {
			rejoin = 1
		}
		b := append(dst, msgHello, protoMagic, v, minv, codecs, rejoin)
		b = appendUint32(b, uint32(m.ID))
		b = appendUint32(b, uint32(m.N))
		b = appendString(b, m.Token)
		b = appendFloats(b, m.LabelDist)
		return b, nil
	case ResyncMsg:
		b := append(dst, msgResync)
		b = appendUint32(b, uint32(m.Round))
		b = appendUint32(b, uint32(m.ExpectTau))
		b = appendFloats(b, m.Control)
		return b, nil
	case UpdateChunkMsg:
		b := append(dst, msgUpdateChunk)
		b = appendUint32(b, uint32(m.Round))
		b = appendUint32(b, uint32(m.Offset))
		b = appendUint32(b, uint32(m.Total))
		b = appendUint32(b, uint32(m.N))
		b = appendUint32(b, uint32(m.Tau))
		last := byte(0)
		if m.Last {
			last = 1
		}
		b = append(b, last)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.TrainLoss))
		b = appendFloats(b, m.Chunk)
		return b, nil
	case GlobalChunkMsg:
		b := append(dst, msgGlobalChunk)
		b = appendUint32(b, uint32(m.Round))
		b = appendUint32(b, uint32(m.Offset))
		b = appendUint32(b, uint32(m.Total))
		b = appendUint32(b, uint32(m.CtrlLen))
		b = appendUint32(b, uint32(m.Budget))
		b = appendUint32(b, uint32(m.Chunk))
		last := byte(0)
		if m.Last {
			last = 1
		}
		b = append(b, last)
		b = appendFloats(b, m.Payload)
		return b, nil
	case UpdateChunkQMsg:
		if err := validateQuantPayload(m.Codec, m.Count, m.Payload); err != nil {
			return nil, err
		}
		b := append(dst, msgUpdateChunkQ)
		b = appendUint32(b, uint32(m.Round))
		b = appendUint32(b, uint32(m.Offset))
		b = appendUint32(b, uint32(m.Total))
		b = appendUint32(b, uint32(m.N))
		b = appendUint32(b, uint32(m.Tau))
		last := byte(0)
		if m.Last {
			last = 1
		}
		b = append(b, last)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.TrainLoss))
		b = append(b, m.Codec)
		b = appendUint32(b, uint32(m.Count))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.Scale))
		b = appendBytes(b, m.Payload)
		return b, nil
	case GlobalChunkQMsg:
		if err := validateQuantPayload(m.Codec, m.Count, m.Payload); err != nil {
			return nil, err
		}
		b := append(dst, msgGlobalChunkQ)
		b = appendUint32(b, uint32(m.Round))
		b = appendUint32(b, uint32(m.Offset))
		b = appendUint32(b, uint32(m.Total))
		b = appendUint32(b, uint32(m.CtrlLen))
		b = appendUint32(b, uint32(m.Budget))
		b = appendUint32(b, uint32(m.Chunk))
		last := byte(0)
		if m.Last {
			last = 1
		}
		b = append(b, last)
		b = append(b, m.Codec)
		b = appendUint32(b, uint32(m.Count))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.Scale))
		b = appendBytes(b, m.Payload)
		return b, nil
	case GlobalRefMsg:
		b := append(dst, msgGlobalRef)
		b = appendUint32(b, uint32(m.Round))
		b = appendUint32(b, uint32(m.StateLen))
		b = appendUint32(b, uint32(m.CtrlLen))
		b = appendUint32(b, uint32(m.Budget))
		b = appendUint32(b, uint32(m.Chunk))
		return b, nil
	case ShutdownMsg:
		return append(dst, msgShutdown), nil
	default:
		return nil, fmt.Errorf("simnet: cannot marshal %T", msg)
	}
}

// Unmarshal decodes a message produced by Marshal.
func Unmarshal(b []byte) (any, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("simnet: empty message")
	}
	tag, b := b[0], b[1:]
	switch tag {
	case msgHello:
		var m HelloMsg
		if len(b) < 3 {
			return nil, fmt.Errorf("simnet: truncated hello preamble")
		}
		if b[0] != protoMagic {
			return nil, fmt.Errorf("simnet: hello magic 0x%02x, want 0x%02x (not a niidbench hello, or a pre-versioning peer)", b[0], protoMagic)
		}
		v, minv := b[1], b[2]
		b = b[3:]
		// Admit on range overlap: the peer must still speak something we
		// do ([minv, v] ∩ [MinProtoVersion, ProtoVersion] non-empty; an
		// inverted peer range is skew too). Checked before the codec mask,
		// so a skewed peer always gets the typed version error even off a
		// short preamble.
		if v < MinProtoVersion || minv > ProtoVersion || minv > v {
			return nil, &VersionError{Got: v, GotMin: minv}
		}
		if len(b) < 2 {
			return nil, fmt.Errorf("simnet: truncated hello codec mask or rejoin flag")
		}
		m.Version, m.MinVersion = v, minv
		m.Codecs, m.Rejoin = b[0], b[1] != 0
		b = b[2:]
		id, b, err := readUint32(b)
		if err != nil {
			return nil, err
		}
		m.ID = int(id)
		n, b, err := readUint32(b)
		if err != nil {
			return nil, err
		}
		m.N = int(n)
		if m.Token, b, err = readString(b); err != nil {
			return nil, err
		}
		if m.LabelDist, _, err = readFloats(b); err != nil {
			return nil, err
		}
		return m, nil
	case msgUpdateChunk:
		m, err := unmarshalChunk(b, nil)
		if err != nil {
			return nil, err
		}
		return m, nil
	case msgGlobalChunk:
		m, err := unmarshalGlobalChunk(b, nil)
		if err != nil {
			return nil, err
		}
		return m, nil
	case msgUpdateChunkQ:
		m, err := unmarshalChunkQ(b)
		if err != nil {
			return nil, err
		}
		return m, nil
	case msgGlobalChunkQ:
		m, err := unmarshalGlobalChunkQ(b)
		if err != nil {
			return nil, err
		}
		return m, nil
	case msgGlobalRef:
		var m GlobalRefMsg
		fields := [5]*int{&m.Round, &m.StateLen, &m.CtrlLen, &m.Budget, &m.Chunk}
		for _, f := range fields {
			v, rest, err := readUint32(b)
			if err != nil {
				return nil, err
			}
			*f = int(v)
			b = rest
		}
		return m, nil
	case msgResync:
		var m ResyncMsg
		r, b, err := readUint32(b)
		if err != nil {
			return nil, err
		}
		m.Round = int(r)
		tau, b, err := readUint32(b)
		if err != nil {
			return nil, err
		}
		m.ExpectTau = int(tau)
		if m.Control, _, err = readFloats(b); err != nil {
			return nil, err
		}
		return m, nil
	case msgShutdown:
		return ShutdownMsg{}, nil
	default:
		return nil, fmt.Errorf("simnet: unknown message tag %d", tag)
	}
}

// UnmarshalChunkInto decodes an UpdateChunkMsg, reusing buf's backing
// array for the payload when it has the capacity. It rejects any other
// message type, so the server's per-conn chunk receivers never allocate
// for well-behaved peers.
func UnmarshalChunkInto(b []byte, buf []float64) (UpdateChunkMsg, error) {
	if len(b) == 0 {
		return UpdateChunkMsg{}, fmt.Errorf("simnet: empty message")
	}
	if b[0] != msgUpdateChunk {
		return UpdateChunkMsg{}, fmt.Errorf("simnet: expected update chunk, got message tag %d", b[0])
	}
	return unmarshalChunk(b[1:], buf)
}

// unmarshalGlobalChunk decodes the body (everything after the tag byte) of
// a GlobalChunkMsg, decoding the payload into buf when it fits.
func unmarshalGlobalChunk(b []byte, buf []float64) (GlobalChunkMsg, error) {
	var m GlobalChunkMsg
	fields := [6]*int{&m.Round, &m.Offset, &m.Total, &m.CtrlLen, &m.Budget, &m.Chunk}
	for _, f := range fields {
		v, rest, err := readUint32(b)
		if err != nil {
			return m, err
		}
		*f = int(v)
		b = rest
	}
	if len(b) < 1 {
		return m, fmt.Errorf("simnet: truncated last marker")
	}
	m.Last = b[0] != 0
	b = b[1:]
	var err error
	if m.Payload, _, err = readFloatsInto(buf, b); err != nil {
		return m, err
	}
	return m, nil
}

// readQuantTrailer decodes the codec/count/scale/payload tail shared by
// both quantized frame types and validates it.
func readQuantTrailer(b []byte) (codec byte, count int, scale float64, payload []byte, err error) {
	if len(b) < 1 {
		return 0, 0, 0, nil, fmt.Errorf("simnet: truncated codec byte")
	}
	codec, b = b[0], b[1:]
	n, b, err := readUint32(b)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	count = int(n)
	if len(b) < 8 {
		return 0, 0, 0, nil, fmt.Errorf("simnet: truncated quantization scale")
	}
	scale = math.Float64frombits(binary.LittleEndian.Uint64(b))
	b = b[8:]
	if payload, _, err = readBytes(b); err != nil {
		return 0, 0, 0, nil, err
	}
	if err := validateQuantPayload(codec, count, payload); err != nil {
		return 0, 0, 0, nil, err
	}
	return codec, count, scale, payload, nil
}

// unmarshalChunkQ decodes the body of an UpdateChunkQMsg. The payload is
// a zero-copy view into b.
func unmarshalChunkQ(b []byte) (UpdateChunkQMsg, error) {
	var m UpdateChunkQMsg
	fields := [5]*int{&m.Round, &m.Offset, &m.Total, &m.N, &m.Tau}
	for _, f := range fields {
		v, rest, err := readUint32(b)
		if err != nil {
			return m, err
		}
		*f = int(v)
		b = rest
	}
	if len(b) < 1 {
		return m, fmt.Errorf("simnet: truncated last marker")
	}
	m.Last = b[0] != 0
	b = b[1:]
	if len(b) < 8 {
		return m, fmt.Errorf("simnet: truncated loss")
	}
	m.TrainLoss = math.Float64frombits(binary.LittleEndian.Uint64(b))
	b = b[8:]
	var err error
	if m.Codec, m.Count, m.Scale, m.Payload, err = readQuantTrailer(b); err != nil {
		return m, err
	}
	return m, nil
}

// unmarshalGlobalChunkQ decodes the body of a GlobalChunkQMsg. The
// payload is a zero-copy view into b.
func unmarshalGlobalChunkQ(b []byte) (GlobalChunkQMsg, error) {
	var m GlobalChunkQMsg
	fields := [6]*int{&m.Round, &m.Offset, &m.Total, &m.CtrlLen, &m.Budget, &m.Chunk}
	for _, f := range fields {
		v, rest, err := readUint32(b)
		if err != nil {
			return m, err
		}
		*f = int(v)
		b = rest
	}
	if len(b) < 1 {
		return m, fmt.Errorf("simnet: truncated last marker")
	}
	m.Last = b[0] != 0
	b = b[1:]
	var err error
	if m.Codec, m.Count, m.Scale, m.Payload, err = readQuantTrailer(b); err != nil {
		return m, err
	}
	return m, nil
}

// dequantInto dequantizes a validated quantized payload into buf (reused
// when it has the capacity, like readFloatsInto). The allocation is
// bounded: count was validated against the payload's actual byte length,
// which the transport's receive limit already capped.
func dequantInto(buf []float64, codec byte, count int, scale float64, payload []byte) ([]float64, error) {
	if count == 0 {
		return nil, nil
	}
	out := buf
	if cap(out) < count {
		out = make([]float64, count)
	}
	out = out[:count]
	if err := dequantizeChunk(out, codec, payload, scale); err != nil {
		return nil, err
	}
	return out, nil
}

// decodeUpdateFrameInto decodes one uplink chunk frame — raw
// (UpdateChunkMsg) or quantized (UpdateChunkQMsg, dequantized into buf)
// — into the raw form every downstream consumer handles, plus the wire
// codec the frame used so stream assembly can enforce codec constancy.
func decodeUpdateFrameInto(raw []byte, buf []float64) (UpdateChunkMsg, byte, error) {
	if len(raw) == 0 {
		return UpdateChunkMsg{}, 0, fmt.Errorf("simnet: empty message")
	}
	switch raw[0] {
	case msgUpdateChunk:
		m, err := unmarshalChunk(raw[1:], buf)
		return m, wireCodecF64, err
	case msgUpdateChunkQ:
		q, err := unmarshalChunkQ(raw[1:])
		if err != nil {
			return UpdateChunkMsg{}, 0, err
		}
		chunk, err := dequantInto(buf, q.Codec, q.Count, q.Scale, q.Payload)
		if err != nil {
			return UpdateChunkMsg{}, 0, err
		}
		return UpdateChunkMsg{
			Round: q.Round, Offset: q.Offset, Total: q.Total,
			N: q.N, Tau: q.Tau, Last: q.Last, TrainLoss: q.TrainLoss,
			Chunk: chunk,
		}, q.Codec, nil
	default:
		return UpdateChunkMsg{}, 0, fmt.Errorf("simnet: expected update chunk, got message tag %d", raw[0])
	}
}

// decodeGlobalFrameInto is decodeUpdateFrameInto's downlink twin: one
// broadcast chunk frame, raw or quantized, decoded into the raw form
// (dequantizing into buf) plus the frame's wire codec.
func decodeGlobalFrameInto(raw []byte, buf []float64) (GlobalChunkMsg, byte, error) {
	if len(raw) == 0 {
		return GlobalChunkMsg{}, 0, fmt.Errorf("simnet: empty message")
	}
	switch raw[0] {
	case msgGlobalChunk:
		m, err := unmarshalGlobalChunk(raw[1:], buf)
		return m, wireCodecF64, err
	case msgGlobalChunkQ:
		q, err := unmarshalGlobalChunkQ(raw[1:])
		if err != nil {
			return GlobalChunkMsg{}, 0, err
		}
		payload, err := dequantInto(buf, q.Codec, q.Count, q.Scale, q.Payload)
		if err != nil {
			return GlobalChunkMsg{}, 0, err
		}
		return GlobalChunkMsg{
			Round: q.Round, Offset: q.Offset, Total: q.Total,
			CtrlLen: q.CtrlLen, Budget: q.Budget, Chunk: q.Chunk,
			Last: q.Last, Payload: payload,
		}, q.Codec, nil
	default:
		return GlobalChunkMsg{}, 0, fmt.Errorf("simnet: expected global chunk, got message tag %d", raw[0])
	}
}

// unmarshalChunk decodes the body (everything after the tag byte) of an
// UpdateChunkMsg, decoding the payload into buf when it fits.
func unmarshalChunk(b []byte, buf []float64) (UpdateChunkMsg, error) {
	var m UpdateChunkMsg
	fields := [5]*int{&m.Round, &m.Offset, &m.Total, &m.N, &m.Tau}
	for _, f := range fields {
		v, rest, err := readUint32(b)
		if err != nil {
			return m, err
		}
		*f = int(v)
		b = rest
	}
	if len(b) < 1 {
		return m, fmt.Errorf("simnet: truncated last marker")
	}
	m.Last = b[0] != 0
	b = b[1:]
	if len(b) < 8 {
		return m, fmt.Errorf("simnet: truncated loss")
	}
	m.TrainLoss = math.Float64frombits(binary.LittleEndian.Uint64(b))
	b = b[8:]
	var err error
	if m.Chunk, _, err = readFloatsInto(buf, b); err != nil {
		return m, err
	}
	return m, nil
}
