package mirror

// Quantized snapshot codec: the int8 serving variant of a published
// model. The region reuses the mirror's layer-list layout (header,
// linked layer nodes, one sealed buffer per parameter buffer); only the
// plaintext of buffer 0 of each layer differs — instead of fp32 weight
// bytes it carries a small header (scale float32 LE, zero-point int32
// LE, always 0 for the symmetric scheme) followed by one int8 byte per
// weight. The remaining buffers (biases, batch-norm vectors) stay fp32,
// so a quantized snapshot of a weight-dominated model seals to roughly
// a quarter of the fp32 payload — less AES on publish and restore, and
// a proportionally smaller EPC working set for the serving replica.

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"plinius/internal/darknet"
	"plinius/internal/engine"
	"plinius/internal/obs"
	"plinius/internal/romulus"
)

// Quantized-path counters, the int8 twins of the mirror_* payload
// counters: sealed bytes written when publishing a quantized variant
// and read back when a replica restores one.
var (
	mQuantSealedBytes = obs.Default().Counter("mirror_quant_sealed_payload_bytes_total",
		"Sealed payload bytes written for quantized (int8) snapshot variants.")
	mQuantRestoredBytes = obs.Default().Counter("mirror_quant_restored_payload_bytes_total",
		"Sealed payload bytes read back by quantized (int8) snapshot restores.")
)

// quantSealedLens returns the per-buffer sealed byte lengths of the
// quantized snapshot of the given fp32 parameter layers, each buffer
// one segment: buffer 0 (the weight matrix) quantizes to one byte per
// element plus the scale/zero-point header; the rest stay four bytes
// per element.
func quantSealedLens(paramLayers [][][]float32) [][]int {
	lens := make([][]int, len(paramLayers))
	for li, params := range paramLayers {
		bl := make([]int, len(params))
		for bi, p := range params {
			if bi == 0 {
				bl[bi] = engine.SealedLen(darknet.QuantHeaderBytes + len(p))
			} else {
				bl[bi] = engine.SealedLen(4 * len(p))
			}
		}
		lens[li] = bl
	}
	return lens
}

// nodesMatchLens checks a cached persistent layout against expected
// per-buffer sealed lengths — the quant twin of Model.matches. Quant
// buffers are never segmented, so a length matches only exactly.
func nodesMatchLens(layers []layerNode, sealedLens [][]int) error {
	if len(sealedLens) != len(layers) {
		return fmt.Errorf("%w: %d persistent layers, %d expected",
			ErrShapeMismatch, len(layers), len(sealedLens))
	}
	for li, bufs := range sealedLens {
		node := layers[li]
		if len(bufs) != len(node.bufs) {
			return fmt.Errorf("%w: layer %d has %d buffers, persistent %d",
				ErrShapeMismatch, li, len(bufs), len(node.bufs))
		}
		for bi, n := range bufs {
			if n != node.bufs[bi].sealedLen {
				return fmt.Errorf("%w: layer %d buffer %d sealed size %d vs %d",
					ErrShapeMismatch, li, bi, n, node.bufs[bi].sealedLen)
			}
		}
	}
	return nil
}

// encodeQuantWeights serializes one quantized weight buffer:
// scale (float32 LE) ‖ zeroPoint (int32 LE, 0) ‖ int8 payload.
func encodeQuantWeights(q []int8, scale float32) []byte {
	out := make([]byte, darknet.QuantHeaderBytes+len(q))
	binary.LittleEndian.PutUint32(out, math.Float32bits(scale))
	binary.LittleEndian.PutUint32(out[4:], 0) // zero-point
	for i, v := range q {
		out[darknet.QuantHeaderBytes+i] = byte(v)
	}
	return out
}

// decodeQuantWeights parses an encoded quantized weight buffer into
// dst, returning the scale.
func decodeQuantWeights(b []byte, dst []int8) (float32, error) {
	if len(b) != darknet.QuantHeaderBytes+len(dst) {
		return 0, fmt.Errorf("%w: quant buffer %d bytes, want %d",
			ErrShapeMismatch, len(b), darknet.QuantHeaderBytes+len(dst))
	}
	scale := math.Float32frombits(binary.LittleEndian.Uint32(b))
	if zp := int32(binary.LittleEndian.Uint32(b[4:])); zp != 0 {
		return 0, fmt.Errorf("%w: nonzero quant zero-point %d", ErrCorrupt, zp)
	}
	if scale <= 0 || math.IsNaN(float64(scale)) || math.IsInf(float64(scale), 0) {
		return 0, fmt.Errorf("%w: bad quant scale %v", ErrCorrupt, scale)
	}
	for i := range dst {
		dst[i] = int8(b[darknet.QuantHeaderBytes+i])
	}
	return scale, nil
}

// writeQuantSnapshot quantizes paramLayers and seals the encoded
// buffers into an already-laid-out quant region (header at hdr),
// inside one durable transaction. Returns the total sealed payload
// bytes written. The quant header reuses the model header layout, so
// openModelAt walks it; numLayers/head were stored at layout time and
// only the iteration counter is (re)stored here.
func writeQuantSnapshot(rom *romulus.Romulus, eng *engine.Engine, hdr int, layers []layerNode, paramLayers [][][]float32, iteration int) (int, error) {
	total := 0
	err := rom.Update(func() error {
		if len(layers) != len(paramLayers) {
			return fmt.Errorf("%w: quant region has %d layers, payload %d",
				ErrShapeMismatch, len(layers), len(paramLayers))
		}
		if err := rom.StoreUint64(hdr+modelHdrIter, uint64(iteration)); err != nil {
			return err
		}
		for li, params := range paramLayers {
			node := layers[li]
			for bi, p := range params {
				var plain []byte
				if bi == 0 {
					q, scale := darknet.QuantizeWeights(p)
					plain = encodeQuantWeights(q, scale)
				} else {
					plain = engine.FloatsToBytes(p)
				}
				sealed, err := eng.Seal(plain)
				if err != nil {
					return fmt.Errorf("quant seal layer %d buffer %d: %w", li, bi, err)
				}
				if len(sealed) != node.bufs[bi].sealedLen {
					return fmt.Errorf("%w: quant layer %d buffer %d sealed %d, region %d",
						ErrShapeMismatch, li, bi, len(sealed), node.bufs[bi].sealedLen)
				}
				if err := rom.Store(node.bufs[bi].off, sealed); err != nil {
					return err
				}
				total += len(sealed)
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	mQuantSealedBytes.Add(float64(total))
	return total, nil
}

// QuantModel is a read handle over a quantized snapshot region.
type QuantModel struct {
	m *Model
}

// openQuantAt attaches to the quantized snapshot whose header is at
// hdr, walking its layer list like openModelAt.
func openQuantAt(rom *romulus.Romulus, eng *engine.Engine, hdr int, opts ...Option) (*QuantModel, error) {
	m, err := openModelAt(rom, eng, hdr, opts...)
	if err != nil {
		return nil, err
	}
	return &QuantModel{m: m}, nil
}

// SealedBytes returns the total persistent size of the quantized
// snapshot payload.
func (q *QuantModel) SealedBytes() int { return q.m.SealedBytes() }

// NumLayers returns the number of persistent layer nodes.
func (q *QuantModel) NumLayers() int { return q.m.NumLayers() }

// Iteration reads the persisted iteration counter without touching the
// parameters.
func (q *QuantModel) Iteration() (int, error) { return q.m.Iteration() }

// RestoreInto decrypts the quantized snapshot and installs it into
// net, which must be the int8 inference clone of the published
// architecture (darknet.QuantizeNetwork): int8 weights and scale go to
// each QuantWeightLayer, the fp32 side buffers to its Params. Returns
// the snapshot's iteration counter.
func (q *QuantModel) RestoreInto(net *darknet.Network) (int, error) {
	iter, err := q.m.rom.LoadUint64(q.m.headOff + modelHdrIter)
	if err != nil {
		return 0, err
	}
	openStart := time.Now()
	total := 0
	li := 0
	for i, l := range net.Layers {
		ql, isQuant := l.(darknet.QuantWeightLayer)
		params := l.Params()
		if !isQuant && len(params) == 0 {
			continue // parameter-less layer: no persistent node
		}
		if !isQuant {
			return 0, fmt.Errorf("%w: layer %d (%s) is not quantized", ErrShapeMismatch, i, l.Kind())
		}
		if li >= len(q.m.layers) {
			return 0, fmt.Errorf("%w: %d persistent layers, network needs more", ErrShapeMismatch, len(q.m.layers))
		}
		node := q.m.layers[li]
		if len(node.bufs) != 1+len(params) {
			return 0, fmt.Errorf("%w: layer %d has %d persistent buffers, want %d",
				ErrShapeMismatch, i, len(node.bufs), 1+len(params))
		}
		for bi, ref := range node.bufs {
			sealed := make([]byte, ref.sealedLen)
			if err := q.m.rom.Load(ref.off, sealed); err != nil {
				return 0, err
			}
			if q.m.encl != nil {
				q.m.encl.CopyAcross(len(sealed))
			}
			total += len(sealed)
			if bi == 0 {
				plain, err := q.m.eng.Open(sealed)
				if err != nil {
					return 0, fmt.Errorf("quant open layer %d buffer %d: %w", i, bi, err)
				}
				scale, err := decodeQuantWeights(plain, ql.QuantWeights())
				if err != nil {
					return 0, fmt.Errorf("layer %d: %w", i, err)
				}
				ql.SetWeightScale(scale)
				continue
			}
			if err := q.m.eng.OpenFloatsInto(params[bi-1], sealed); err != nil {
				return 0, fmt.Errorf("quant open layer %d buffer %d: %w", i, bi, err)
			}
		}
		li++
	}
	if li != len(q.m.layers) {
		return 0, fmt.Errorf("%w: %d persistent layers, network used %d", ErrShapeMismatch, len(q.m.layers), li)
	}
	q.m.lastOpen.Store(int64(time.Since(openStart)))
	net.Iteration = int(iter)
	mMirrorIn.Inc()
	mQuantRestoredBytes.Add(float64(total))
	return int(iter), nil
}
