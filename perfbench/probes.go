package main

import (
	"fmt"
	"math"
	"time"

	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/nn"
	"github.com/niid-bench/niidbench/internal/rng"
	"github.com/niid-bench/niidbench/internal/simnet"
	"github.com/niid-bench/niidbench/internal/tensor"
)

// gemmShape is one forward GEMM a workload's training step runs:
// (m x k) @ (k x n) in the workload's compute dtype.
type gemmShape struct {
	dt       tensor.DType
	m, k, n  int
	workload string
}

func (g gemmShape) name() string {
	dt := "f64"
	if g.dt == tensor.Float32 {
		dt = "f32"
	}
	return fmt.Sprintf("%s.%dx%dx%d", dt, g.m, g.k, g.n)
}

// gemmShapes are the heaviest forward GEMMs per workload at batch 32: the
// CNN's two convolutions as im2col products and its widest dense layer,
// and the MLP's 600->32 input layer. Every traced run probes all of them.
var gemmShapes = []gemmShape{
	{tensor.Float64, 32 * 144, 75, 6, "paper-cnn"},
	{tensor.Float64, 32 * 4, 150, 16, "paper-cnn"},
	{tensor.Float64, 32, 120, 84, "paper-cnn"},
	{tensor.Float64, 32, 600, 32, "tcp-silos"},
	{tensor.Float32, 32, 600, 32, "pipe-fleet-q"},
}

type gemmProbe struct {
	shape  gemmShape
	ms     float64
	gflops float64
}

// probes are single-layer timings on a workload's own shapes and dtypes.
type probes struct {
	gemm               []gemmProbe
	im2colMS           float64
	fwdBwdMS, fwdMS    float64
	encodeMS, decodeMS float64
}

// ownGemmMS sums the per-call time of the workload's own GEMM shapes.
func (p probes) ownGemmMS(w workload) float64 {
	var s float64
	for _, g := range p.gemm {
		if g.shape.workload == w.name {
			s += g.ms
		}
	}
	return s
}

// perCallMS times f call by call for about 150ms after a warm-up call and
// returns the median.
func perCallMS(f func()) float64 {
	f()
	var v []float64
	deadline := time.Now().Add(150 * time.Millisecond)
	for len(v) < 5 || (len(v) < 5000 && time.Now().Before(deadline)) {
		s := time.Now()
		f()
		v = append(v, ms(time.Since(s)))
	}
	return median(v)
}

// probeLayers times the tensor kernels, the model's training step and
// forward pass, and the wire codec, each on the shapes the workload runs
// and under the one-worker kernel budget a concurrently training party
// gets.
func probeLayers(w workload, rr *repResult) probes {
	var p probes
	one := tensor.Compute{Workers: 1}
	r := rng.New(7)
	for _, g := range gemmShapes {
		a, b := filled(g.dt, r, g.m, g.k), filled(g.dt, r, g.k, g.n)
		dst := tensor.NewOf(g.dt, g.m, g.n)
		t := perCallMS(func() { one.MatMulInto(dst, a, b) })
		p.gemm = append(p.gemm, gemmProbe{shape: g, ms: t, gflops: 2 * float64(g.m*g.k*g.n) / (t * 1e6)})
	}
	in := rr.in
	spec := in.cfg.ResolveSpec(in.spec)
	x := filled(spec.DType, r, 32, 3, 16, 16)
	var cols *tensor.Tensor
	cols = tensor.EnsureOf(spec.DType, cols, 32*144, 75)
	p.im2colMS = perCallMS(func() { one.Im2ColInto(cols, x, 5, 5, 1, 0) })

	// One training step on a real batch from the largest party.
	big := in.locals[0]
	for _, d := range in.locals {
		if d.Len() > big.Len() {
			big = d
		}
	}
	model := nn.Build(spec, rng.New(in.cfg.Seed))
	model.SetCompute(one)
	bs := min(in.cfg.BatchSize, big.Len())
	xb, yb := batch(spec, big.X, big.Y, big.FeatLen, bs)
	loss := nn.SoftmaxCrossEntropy{}
	var grad *tensor.Tensor
	p.fwdBwdMS = perCallMS(func() {
		model.ZeroGrads()
		logits := model.Forward(xb, true)
		_, grad = loss.LossInto(grad, logits, yb)
		model.Backward(grad)
	})
	// One evaluation batch (fl evaluates 256 test samples per Forward).
	xe, _ := batch(spec, in.test.X, in.test.Y, in.test.FeatLen, min(256, in.test.Len()))
	p.fwdMS = perCallMS(func() { model.Forward(xe, false) })

	c := codecProbe(in, in.cfg.Codec)
	p.encodeMS, p.decodeMS = c.encodeMS, c.decodeMS
	return p
}

// filled returns a tensor of the given shape with N(0,1) entries.
func filled(dt tensor.DType, r *rng.RNG, shape ...int) *tensor.Tensor {
	t := tensor.NewOf(dt, shape...)
	if dt == tensor.Float32 {
		d := t.Data32()
		for i := range d {
			d[i] = float32(r.Normal())
		}
		return t
	}
	d := t.Data()
	for i := range d {
		d[i] = r.Normal()
	}
	return t
}

// batch copies the first n samples of a dataset into a model-shaped input.
func batch(spec nn.ModelSpec, x []float64, y []int, featLen, n int) (*tensor.Tensor, []int) {
	t := tensor.EnsureOf(spec.DType, nil, n, featLen)
	t.CopyFromF64(x[:n*featLen])
	return spec.ShapeBatch(t), append([]int(nil), y[:n]...)
}

// streamLen is one party update's stream: the state delta plus, under
// SCAFFOLD, the parameter-length control delta.
func streamLen(in *inputs) int {
	m := nn.Build(in.cfg.ResolveSpec(in.spec), rng.New(1))
	if in.cfg.Algorithm == fl.Scaffold {
		return m.StateCount() + m.ParamCount()
	}
	return m.StateCount()
}

// wireInt8 is simnet's wire identifier of the int8 codec (quant.go).
const wireInt8 byte = 2

// quantizeInt8 reproduces simnet's int8 chunk encoding (per-chunk scale
// maxAbs/127, round to nearest, clamp to ±127). The quantizer itself is
// internal to simnet; this copy lets the probe time a complete frame.
func quantizeInt8(dst []byte, v []float64) ([]byte, float64) {
	maxAbs := 0.0
	for _, f := range v {
		if a := math.Abs(f); a > maxAbs {
			maxAbs = a
		}
	}
	scale := maxAbs / 127
	for _, f := range v {
		q := 0
		if scale > 0 {
			q = int(math.Round(f / scale))
			if q > 127 {
				q = 127
			} else if q < -127 {
				q = -127
			}
		}
		dst = append(dst, byte(int8(q)))
	}
	return dst, scale
}

// sampleStream is a deterministic update-sized vector with the spread of
// a real delta.
func sampleStream(n int) []float64 {
	r := rng.New(11)
	v := make([]float64, n)
	for i := range v {
		v[i] = 1e-3 * r.Normal()
	}
	return v
}

// encodeUpdate frames one whole update stream as a single chunk frame in
// the given codec, appending to dst.
func encodeUpdate(dst, qbuf []byte, codec fl.Codec, v []float64) ([]byte, []byte, error) {
	if codec == fl.CodecInt8 {
		q, scale := quantizeInt8(qbuf[:0], v)
		b, err := simnet.AppendMarshal(dst, simnet.UpdateChunkQMsg{Round: 1, Total: len(v), N: 100, Tau: 4,
			Last: true, TrainLoss: 0.5, Codec: wireInt8, Count: len(v), Scale: scale, Payload: q})
		return b, q, err
	}
	b, err := simnet.AppendMarshal(dst, simnet.UpdateChunkMsg{Round: 1, Total: len(v), N: 100, Tau: 4,
		Last: true, TrainLoss: 0.5, Chunk: v})
	return b, qbuf, err
}

// decodeUpdate decodes a frame from encodeUpdate into dst.
func decodeUpdate(frame []byte, codec fl.Codec, dst []float64) error {
	if codec != fl.CodecInt8 {
		_, err := simnet.UnmarshalChunkInto(frame, dst)
		return err
	}
	m, err := simnet.Unmarshal(frame)
	if err != nil {
		return err
	}
	q, ok := m.(simnet.UpdateChunkQMsg)
	if !ok {
		return fmt.Errorf("decoded %T, want UpdateChunkQMsg", m)
	}
	for i := range dst {
		dst[i] = q.Scale * float64(int8(q.Payload[i]))
	}
	return nil
}

type codecTimes struct{ encodeMS, decodeMS float64 }

// codecProbe times encoding and decoding one party's update frame: one
// frame per update, since the workloads' chunk size exceeds the stream.
func codecProbe(in *inputs, codec fl.Codec) codecTimes {
	n := streamLen(in)
	v := sampleStream(n)
	dst := make([]float64, n)
	var frame, qbuf []byte
	var err error
	var c codecTimes
	c.encodeMS = perCallMS(func() { frame, qbuf, err = encodeUpdate(frame[:0], qbuf, codec, v) })
	if err != nil {
		return codecTimes{math.NaN(), math.NaN()}
	}
	c.decodeMS = perCallMS(func() { err = decodeUpdate(frame, codec, dst) })
	if err != nil {
		return codecTimes{math.NaN(), math.NaN()}
	}
	return c
}

// upFrame is one party's encoded update frame.
func upFrame(in *inputs, codec fl.Codec) []byte {
	n := streamLen(in)
	b, _, err := encodeUpdate(nil, nil, codec, sampleStream(n))
	if err != nil {
		return nil
	}
	return b
}

// frameBytes is the size of one party's update frame and of its round
// broadcast frame (state plus SCAFFOLD control).
func frameBytes(in *inputs, codec fl.Codec) (up, down int) {
	n := streamLen(in)
	up = len(upFrame(in, codec))
	v := sampleStream(n)
	var b []byte
	var err error
	if codec == fl.CodecInt8 {
		q, scale := quantizeInt8(nil, v)
		b, err = simnet.Marshal(simnet.GlobalChunkQMsg{Total: n, Chunk: in.cfg.ChunkSize, Last: true,
			Codec: wireInt8, Count: n, Scale: scale, Payload: q})
	} else {
		b, err = simnet.Marshal(simnet.GlobalChunkMsg{Total: n, Chunk: in.cfg.ChunkSize, Last: true, Payload: v})
	}
	if err != nil {
		return up, 0
	}
	return up, len(b)
}

type hopTimes struct{ sendMS, recvMS float64 }

// pipeHop times a party sending a frame into an in-process simnet pipe
// and the server end receiving it, for workloads whose transport the
// benchmark cannot wrap.
func pipeHop(frame []byte) hopTimes {
	a, b := simnet.Pipe()
	defer a.Close()
	var sends, recvs []float64
	for i := 0; i < 200; i++ {
		s := time.Now()
		if err := a.Send(frame); err != nil {
			return hopTimes{math.NaN(), math.NaN()}
		}
		m := time.Now()
		if _, err := b.Recv(); err != nil {
			return hopTimes{math.NaN(), math.NaN()}
		}
		sends = append(sends, ms(m.Sub(s)))
		recvs = append(recvs, ms(time.Since(m)))
	}
	return hopTimes{median(sends), median(recvs)}
}
