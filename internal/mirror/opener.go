package mirror

import (
	"fmt"
	"sync"

	"plinius/internal/darknet"
	"plinius/internal/par"
)

// Opener opens the sealed segments of one network's layer range — a
// shard's — from a model handle. It is built once per handle
// (Model.Opener), with the shape checked and every segment's place and
// AAD worked out. Restore opens them all into the network's buffers,
// as MirrorInRange does; Forward opens each parameter layer's segments
// just before the layer runs, so a streaming shard reads its weights
// once per batch, and reads each while it is still in cache. Every
// open is Model.restore's: the same AAD binding, the same boundary
// charge, and the tag checked before anything reads the plaintext.
//
// An Opener serves one caller at a time.
type Opener struct {
	m      *Model
	net    *darknet.Network
	bufs   [][]buffer
	from   int
	tasks  []bufTask
	total  int
	layers []openLayer // one per network layer
}

// openLayer is one network layer's share of an Opener.
type openLayer struct {
	o *Opener
	// node is the layer's index in o.bufs, -1 for a layer without
	// parameters; its segments are o.tasks[lo:hi].
	node, lo, hi int
	// tiled is the layer when Forward consumes its weight segments, the
	// first weights of its tasks, as they open.
	tiled   *darknet.Connected
	weights int
}

// Opener returns an Opener of net's parameter layers, which must match
// the persistent layer nodes from index from on.
func (m *Model) Opener(net *darknet.Network, from int) (*Opener, error) {
	if m.st != nil && m.gen == 0 {
		return nil, ErrNoMirror
	}
	bufLayers := collectBuffers(net)
	if err := m.matchesFrom(bufLayers, from); err != nil {
		return nil, err
	}
	o := &Opener{m: m, net: net, bufs: bufLayers, from: from, layers: make([]openLayer, len(net.Layers))}
	o.tasks, o.total = m.collectTasks(bufLayers, from, m.gen)
	node, next := 0, 0
	for i, l := range net.Layers {
		ol := &o.layers[i]
		ol.o, ol.node, ol.lo, ol.hi = o, -1, next, next
		if len(l.Params()) == 0 {
			continue
		}
		bufs := bufLayers[node]
		for _, b := range bufs {
			ol.hi += segmentsFor(b.size())
		}
		if c, ok := l.(*darknet.Connected); ok && c.RowTiled(segmentsFor(bufs[0].size())) {
			ol.tiled, ol.weights = c, segmentsFor(bufs[0].size())
		}
		ol.node, next = node, ol.hi
		node++
	}
	return o, nil
}

// Restore opens every segment into the network's buffers, on every
// core, installs the snapshot's iteration into the network and returns
// it.
func (o *Opener) Restore() (int, error) {
	return o.m.openAll(o.net, o.bufs, o.from, o.tasks, o.total)
}

// Forward runs x, a batch of batch inputs, through the network,
// opening each parameter layer's segments just before the layer runs,
// and holds pm, the caller's lock on the PM device, only while a layer
// reads them. A Connected layer whose weight segments hold whole rows
// (darknet.Connected.RowTiled) opens its biases and then consumes each
// weight segment as it opens (ForwardTiled), holding pm across the
// layer; every other parameter layer opens into its own buffers and
// runs its ordinary Forward once pm is released. A Forward counts as
// one restore of the range in the mirror_in counters.
func (o *Opener) Forward(x []float32, batch int, pm sync.Locker) ([]float32, error) {
	o.m.lastOpen.Store(0)
	for i, l := range o.net.Layers {
		ol := &o.layers[i]
		var err error
		switch {
		case ol.node < 0:
			x, err = l.Forward(x, batch, false)
		case ol.tiled != nil:
			pm.Lock()
			if err = o.m.restoreTasks(o.tasks[ol.lo+ol.weights : ol.hi]); err == nil {
				x, err = ol.tiled.ForwardTiled(x, batch, ol)
			}
			pm.Unlock()
		default:
			pm.Lock()
			err = o.open(ol)
			pm.Unlock()
			if err == nil {
				x, err = l.Forward(x, batch, false)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("layer %d (%s): %w", i, l.Kind(), err)
		}
	}
	o.m.countOpened(o.net, o.total)
	return x, nil
}

// open opens every segment of ol into its buffers, on every core, and
// checks an int8 layer's scale.
func (o *Opener) open(ol *openLayer) error {
	span, total := o.tasks[ol.lo:ol.hi], 0
	for _, t := range span {
		total += t.sealedLen
	}
	err := par.ForErr(len(span), taskGrain(len(span), total), func(lo, hi int) error {
		return o.m.restoreTasks(span[lo:hi])
	})
	if err != nil {
		return err
	}
	return checkScales(o.bufs[ol.node:ol.node+1], o.from+ol.node)
}

// Segments implements darknet.WeightSegments.
func (ol *openLayer) Segments() int { return ol.weights }

// OpenSegment implements darknet.WeightSegments: it opens weight
// segment s into dst.
func (ol *openLayer) OpenSegment(s int, dst []float32) error {
	return ol.o.m.restore(&ol.o.tasks[ol.lo+s], buffer{f: dst})
}

// SegmentAt locates sealed segment s of the first buffer — a layer's
// weights — of network layer i: the payload half and offset of its
// sealed bytes, and their length.
func (o *Opener) SegmentAt(i, s int) (half, off, n int) {
	t := &o.tasks[o.layers[i].lo+s]
	return o.m.half, t.off, t.sealedLen
}
