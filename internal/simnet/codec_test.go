package simnet

import (
	"reflect"
	"testing"
)

// allMsgFixtures is one representative, fully-populated value per wire
// message type. codeccheck requires every type handled by AppendMarshal
// to round-trip and truncation-sweep here (or in another test), so adding
// a frame to the codec without extending this table is a lint failure,
// not a reviewer catch.
func allMsgFixtures() []any {
	return []any{
		HelloMsg{ID: 4, N: 321, Token: "secret", LabelDist: []float64{0.5, 0.25, 0.25},
			Version: ProtoVersion, MinVersion: MinProtoVersion, Rejoin: true,
			Codecs: codecSupportMask},
		ResyncMsg{Round: 9, ExpectTau: 5, Control: []float64{-0.5, 2}},
		UpdateChunkMsg{Round: 3, Offset: 37, Total: 74, N: 10, Tau: 4, Last: true,
			TrainLoss: 0.125, Chunk: []float64{9, 8, 7}},
		GlobalChunkMsg{Round: 5, Offset: 11, Total: 42, CtrlLen: 6, Budget: 2,
			Chunk: 16, Last: false, Payload: []float64{-1, 1}},
		GlobalRefMsg{Round: 6, StateLen: 100, CtrlLen: 10, Budget: 1, Chunk: 64},
		UpdateChunkQMsg{Round: 3, Offset: 37, Total: 74, N: 10, Tau: 4, Last: true,
			TrainLoss: 0.125, Codec: wireCodecInt8, Count: 3, Scale: 0.5,
			Payload: []byte{0x01, 0xFF, 0x7F}},
		GlobalChunkQMsg{Round: 5, Offset: 11, Total: 42, CtrlLen: 6, Budget: 2,
			Chunk: 16, Last: false, Codec: wireCodecInt4, Count: 3, Scale: 0.25,
			Payload: []byte{0x9A, 0x0B}},
		ShutdownMsg{},
	}
}

// TestCodecRoundTripAllMessages pins Marshal/Unmarshal symmetry for every
// message type in one place: decode(encode(m)) must reproduce m exactly.
func TestCodecRoundTripAllMessages(t *testing.T) {
	for _, msg := range allMsgFixtures() {
		b, err := Marshal(msg)
		if err != nil {
			t.Fatalf("%T: marshal: %v", msg, err)
		}
		got, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("%T: unmarshal: %v", msg, err)
		}
		if !reflect.DeepEqual(got, msg) {
			t.Fatalf("%T round trip mismatch:\n got %#v\nwant %#v", msg, got, msg)
		}
	}
}

// TestCodecTruncationSweepAllMessages decodes every strict prefix of
// every encoded message type: truncations must error — never decode to a
// value, never panic, never read out of bounds. (Types whose encoding is
// a prefix of a longer valid encoding would be a codec design bug this
// sweep surfaces as an unexpectedly successful decode.)
func TestCodecTruncationSweepAllMessages(t *testing.T) {
	for _, msg := range allMsgFixtures() {
		b, err := Marshal(msg)
		if err != nil {
			t.Fatalf("%T: marshal: %v", msg, err)
		}
		for cut := 0; cut < len(b); cut++ {
			if _, err := Unmarshal(b[:cut]); err == nil {
				t.Fatalf("%T: truncation at %d/%d decoded successfully", msg, cut, len(b))
			}
		}
	}
}
