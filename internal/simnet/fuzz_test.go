package simnet

import (
	"testing"
)

// FuzzDecodeMsg throws arbitrary byte soup at the wire decoders: any
// input must produce a message or an error — never a panic or an
// out-of-bounds read — and anything that decodes must re-encode. The
// pooled chunk decoder is fuzzed alongside with a deliberately undersized
// buffer so the grow path is covered too.
func FuzzDecodeMsg(f *testing.F) {
	seed := func(msg any) {
		b, err := Marshal(msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	seed(HelloMsg{ID: 1, N: 100, Token: "tok", LabelDist: []float64{0.5, 0.5}})
	// Retired whole-message tags (GlobalMsg 1, UpdateMsg 2): a pre-v5
	// frame must decode as an unknown tag, never as another message.
	f.Add([]byte{1, 3, 0, 0, 0, 2, 0, 0, 0, 64, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xF0, 0x3F, 0, 0, 0, 0})
	f.Add([]byte{2, 1, 0, 0, 0, 10, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xD0, 0x3F, 0, 0, 0, 0, 0, 0, 0, 0})
	seed(UpdateChunkMsg{Round: 2, Offset: 37, Total: 74, N: 10, Tau: 3, Last: true,
		TrainLoss: 0.5, Chunk: []float64{1, 2, 3}})
	seed(GlobalChunkMsg{Round: 2, Offset: 5, Total: 12, CtrlLen: 4, Budget: 1,
		Chunk: 5, Last: true, Payload: []float64{1, -2}})
	seed(GlobalRefMsg{Round: 3, StateLen: 8, CtrlLen: 4, Budget: 1, Chunk: 64})
	seed(ShutdownMsg{})
	// Quantized chunk frames: one per codec, plus corrupted trailers — a
	// codec byte the decoder does not know, a count that disagrees with
	// the payload length, and a non-finite scale.
	seed(UpdateChunkQMsg{Round: 2, Offset: 37, Total: 74, N: 10, Tau: 3, Last: true,
		TrainLoss: 0.5, Codec: wireCodecInt8, Count: 3, Scale: 0.5, Payload: []byte{1, 0xFF, 0x7F}})
	seed(UpdateChunkQMsg{Round: 1, Offset: 0, Total: 4, N: 5, Tau: 2, Last: true,
		TrainLoss: 0.25, Codec: wireCodecInt4, Count: 4, Scale: 0.125, Payload: []byte{0x9A, 0xB8}})
	seed(GlobalChunkQMsg{Round: 2, Offset: 5, Total: 12, CtrlLen: 4, Budget: 1,
		Chunk: 5, Last: true, Codec: wireCodecF32, Count: 2, Scale: 0, Payload: []byte{0, 0, 0x80, 0x3F, 0, 0, 0, 0xC0}})
	f.Add([]byte{msgUpdateChunkQ, 0, 1, 2})
	f.Add([]byte{msgGlobalChunkQ, 0, 1, 2})
	// Elastic-membership frames: a rejoin hello and both resync shapes
	// (with and without a SCAFFOLD control vector).
	seed(HelloMsg{ID: 2, N: 50, Token: "t", Rejoin: true, LabelDist: []float64{0.25, 0.75}})
	seed(ResyncMsg{Round: 4, ExpectTau: 7, Control: []float64{0.5, -1}})
	seed(ResyncMsg{Round: 1, ExpectTau: 3})
	f.Add([]byte{msgResync})
	f.Add([]byte{msgResync, 0xFF, 0xFF, 0xFF, 0xFF})
	// Hello version-preamble soup: a future version still offering an
	// overlapping range (admitted), a disjoint range and a pre-v5 peer
	// (both decode to a VersionError, never a misaligned field read), a
	// wrong magic, and preambles truncated at every byte — including
	// inside the version range.
	seed(HelloMsg{ID: 1, N: 100, Version: 99})
	seed(HelloMsg{ID: 3, N: 7, Version: ProtoVersion, MinVersion: MinProtoVersion, LabelDist: []float64{1}})
	seed(HelloMsg{ID: 3, N: 7, Version: MinProtoVersion - 1, MinVersion: 2, LabelDist: []float64{1}})
	f.Add([]byte{msgHello, protoMagic, ProtoVersion + 2, ProtoVersion + 1, 0})
	f.Add([]byte{msgHello})
	f.Add([]byte{msgHello, protoMagic})
	f.Add([]byte{msgHello, protoMagic, ProtoVersion})
	f.Add([]byte{msgHello, protoMagic, ProtoVersion, MinProtoVersion})
	f.Add([]byte{msgHello, 0x00, ProtoVersion, 1, 2, 3, 4})
	f.Add([]byte{})
	f.Add([]byte{msgUpdateChunk, 0, 1, 2})
	f.Add([]byte{msgGlobalChunk, 0, 1, 2})
	f.Add([]byte{msgGlobalRef, 9})
	f.Add([]byte{99, 255, 255, 255, 255})
	// Structured truncations: valid encodings cut at the tag, inside a
	// length prefix, at a field boundary, and one byte short of complete —
	// the exact offsets where a decoder is most likely to over-read.
	seedTruncations := func(msg any) {
		b, err := Marshal(msg)
		if err != nil {
			f.Fatal(err)
		}
		for _, cut := range []int{1, 3, len(b) / 2, len(b) - 1} {
			if cut > 0 && cut < len(b) {
				f.Add(append([]byte(nil), b[:cut]...))
			}
		}
	}
	seedTruncations(HelloMsg{ID: 5, N: 9, Token: "tk", Rejoin: true, LabelDist: []float64{0.5, 0.5}})
	seedTruncations(UpdateChunkMsg{Round: 2, Offset: 3, Total: 6, N: 5, Tau: 2, Last: true,
		TrainLoss: 1.5, Chunk: []float64{9, 8, 7}})
	seedTruncations(GlobalChunkMsg{Round: 1, Offset: 0, Total: 3, CtrlLen: 1, Budget: 1, Chunk: 2, Payload: []float64{5}})
	seedTruncations(UpdateChunkQMsg{Round: 1, Offset: 0, Total: 3, N: 5, Tau: 2, Last: true,
		TrainLoss: 0.5, Codec: wireCodecInt8, Count: 3, Scale: 0.5, Payload: []byte{1, 2, 3}})
	seedTruncations(GlobalChunkQMsg{Round: 1, Offset: 0, Total: 3, CtrlLen: 1, Budget: 1,
		Chunk: 2, Last: true, Codec: wireCodecInt4, Count: 3, Scale: 0.25, Payload: []byte{0x12, 0x03}})
	// A hello truncated right before its rejoin flag must surface as a
	// truncation error, never a misaligned read of later fields.
	f.Add([]byte{msgHello, protoMagic, ProtoVersion, MinProtoVersion, 0x0F})
	// Hostile length prefixes: a GlobalChunkMsg and an UpdateChunkMsg
	// whose payload-length word claims ~1G elements with nothing behind
	// it. The decoder must refuse these before allocating.
	f.Add([]byte{msgGlobalChunk, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x40, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0x3F})
	f.Add([]byte{msgUpdateChunk, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x40, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0x3F})
	// Trailing garbage after a complete frame must not decode silently.
	if b, err := Marshal(ShutdownMsg{}); err == nil {
		f.Add(append(b, 0xDE, 0xAD))
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		msg, err := Unmarshal(raw)
		if err == nil {
			if _, err := Marshal(msg); err != nil {
				t.Fatalf("decoded %T failed to re-encode: %v", msg, err)
			}
		}
		var small [2]float64
		if m, err := UnmarshalChunkInto(raw, small[:]); err == nil {
			if m.Chunk != nil && len(m.Chunk) <= len(small) && &m.Chunk[0] != &small[0] {
				t.Fatal("small payload did not land in the caller's buffer")
			}
		}
		// The codec-dispatching decoders must uphold the same invariants
		// over both raw and quantized frames.
		if m, _, err := decodeUpdateFrameInto(raw, small[:]); err == nil {
			if m.Chunk != nil && len(m.Chunk) <= len(small) && &m.Chunk[0] != &small[0] {
				t.Fatal("small decoded chunk did not land in the caller's buffer")
			}
		}
		if m, _, err := decodeGlobalFrameInto(raw, small[:]); err == nil {
			if m.Payload != nil && len(m.Payload) <= len(small) && &m.Payload[0] != &small[0] {
				t.Fatal("small decoded downlink payload did not land in the caller's buffer")
			}
		}
	})
}
