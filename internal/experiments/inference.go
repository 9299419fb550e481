package experiments

import (
	"context"
	"fmt"

	"plinius/internal/core"
	"plinius/internal/darknet"
	"plinius/internal/mnist"
)

// inference is the secure-inference experiment (paper §VI): train a CNN
// in the enclave, then classify a held-out test set there. The paper's
// 12-layer model reaches 98.52% on real MNIST; the reproduction trains
// 2 conv layers of 8 filters for 150 iterations on 800 synthetic digits
// and tests on 200 more.
func inference() ([]Row, error) {
	const trainN, testN, seed = 800, 200, 4
	train, test, err := mnist.Synthetic(trainN+testN, seed).Split(trainN)
	if err != nil {
		return nil, err
	}
	f, err := core.New(core.Config{
		ModelConfig: darknet.MNISTConfig(2, 8, 64),
		Server:      core.EmlSGXPM(),
		PMBytes:     128 << 20,
		Seed:        seed,
	})
	if err != nil {
		return nil, err
	}
	if err := f.LoadDataset(train); err != nil {
		return nil, err
	}
	if err := f.Train(context.Background(), core.StopAt(150)); err != nil {
		return nil, fmt.Errorf("inference training: %w", err)
	}
	acc, err := f.Infer(test)
	if err != nil {
		return nil, err
	}
	return []Row{
		{Figure: "Inference", Quantity: "test accuracy in the enclave", Paper: "0.9852 (real MNIST)", Value: acc, Unit: "fraction", Clock: count, Lo: 0.95, Hi: 1},
	}, nil
}
