package experiments

import (
	"context"
	"fmt"
	"io"

	"plinius/internal/core"
	"plinius/internal/darknet"
	"plinius/internal/mnist"
)

// InferenceResult holds the secure-inference experiment (paper §VI):
// train a CNN, then classify the held-out test set inside the enclave.
// The paper's 12-layer model reaches 98.52% on real MNIST; the
// reproduction trains a scaled CNN on synthetic digits.
type InferenceResult struct {
	TrainSamples int
	TestSamples  int
	Iterations   int
	Accuracy     float64
}

// InferenceConfig parameterises the experiment.
type InferenceConfig struct {
	Server     core.ServerProfile
	ConvLayers int
	Filters    int
	Batch      int
	Iters      int
	Train      int
	Test       int
	Seed       int64
}

func (c *InferenceConfig) setDefaults() {
	if c.Server.Name == "" {
		c.Server = core.EmlSGXPM()
	}
	if c.ConvLayers == 0 {
		c.ConvLayers = 2
	}
	if c.Filters == 0 {
		c.Filters = 8
	}
	if c.Batch == 0 {
		c.Batch = 64
	}
	if c.Iters == 0 {
		c.Iters = 150
	}
	if c.Train == 0 {
		c.Train = 1500
	}
	if c.Test == 0 {
		c.Test = 500
	}
}

// RunInference trains and evaluates the secure-inference pipeline.
func RunInference(cfg InferenceConfig) (InferenceResult, error) {
	cfg.setDefaults()
	full := mnist.Synthetic(cfg.Train+cfg.Test, cfg.Seed)
	train, test, err := full.Split(cfg.Train)
	if err != nil {
		return InferenceResult{}, err
	}
	f, err := core.New(core.Config{
		ModelConfig: darknet.MNISTConfig(cfg.ConvLayers, cfg.Filters, cfg.Batch),
		Server:      cfg.Server,
		PMBytes:     128 << 20,
		Seed:        cfg.Seed,
	})
	if err != nil {
		return InferenceResult{}, err
	}
	if err := f.LoadDataset(train); err != nil {
		return InferenceResult{}, err
	}
	if err := f.Train(context.Background(), core.StopAt(cfg.Iters)); err != nil {
		return InferenceResult{}, fmt.Errorf("inference training: %w", err)
	}
	acc, err := f.Infer(test)
	if err != nil {
		return InferenceResult{}, err
	}
	return InferenceResult{
		TrainSamples: train.N,
		TestSamples:  test.N,
		Iterations:   cfg.Iters,
		Accuracy:     acc,
	}, nil
}

// Print renders the result.
func (r InferenceResult) Print(w io.Writer) {
	fmt.Fprintln(w, "§VI secure inference")
	tw := newTable(w)
	fmt.Fprintln(tw, "train\ttest\titerations\taccuracy")
	fmt.Fprintf(tw, "%d\t%d\t%d\t%.2f%%\n", r.TrainSamples, r.TestSamples, r.Iterations, 100*r.Accuracy)
	tw.Flush()
}
