package darknet

// Classify returns the argmax class of a single sample.
func (n *Network) Classify(x []float32) (int, error) {
	probs, err := n.Predict(x)
	if err != nil {
		return 0, err
	}
	return argmax(probs), nil
}

// QuantParamBytes returns the parameter footprint in bytes of the
// int8-quantized variant of net: one byte per weight plus the
// QuantScaleBytes scale per quantized matrix, and four bytes per
// remaining fp32 parameter. It accepts either a trained fp32 network
// (predicting its quantized size) or an already-quantized one
// (reporting its actual size).
func QuantParamBytes(net *Network) int {
	total := 0
	for _, l := range net.Layers {
		total += layerParamBytes(l, Int8)
	}
	return total
}

// ForwardRange runs a forward pass over just the layer range r —
// exactly the segment a shard enclave executes — and returns the
// range's output activations.
func (n *Network) ForwardRange(x []float32, batch int, r ShardRange, train bool) ([]float32, error) {
	sub, err := n.Shard(r)
	if err != nil {
		return nil, err
	}
	return sub.Forward(x, batch, train)
}

// Predict classifies a single sample and returns the class
// probabilities. The returned slice is valid until the network's next
// forward pass (see Forward).
func (n *Network) Predict(x []float32) ([]float32, error) {
	return n.Forward(x, 1, false)
}
