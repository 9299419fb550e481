package core

import (
	"context"
	"fmt"
)

// TrainOption configures one Train run.
type TrainOption func(*trainConfig)

type trainConfig struct {
	stopAt   int
	stopSet  bool
	progress func(iter int, loss float32)
}

// StopAt stops the run once the model has completed iter iterations
// (counting iterations restored from the mirror). Without it, Train
// runs until its context is cancelled.
func StopAt(iter int) TrainOption {
	return func(c *trainConfig) { c.stopAt, c.stopSet = iter, true }
}

// WithProgress installs a hook observing every completed iteration's
// loss. The hook runs on the training goroutine with no framework lock
// held, so it may call read-side Framework methods.
func WithProgress(fn func(iter int, loss float32)) TrainOption {
	return func(c *trainConfig) { c.progress = fn }
}

// Train runs Algorithm 2 — batch, iterate, mirror-out — until the
// StopAt target is reached or ctx is cancelled. Without StopAt it
// trains indefinitely, making cancellation the only exit.
//
// Cancellation is mirror-consistent: when ctx is done, Train completes
// the iteration in flight, writes a final mirror-out if the last
// completed iteration is not yet in PM, and returns an error wrapping
// ctx's cause (errors.Is(err, context.Canceled/DeadlineExceeded)). A
// cancelled run is therefore always recoverable — after a subsequent
// Crash/Recover (or simply calling Train again) the model resumes from
// the exact iteration the cancellation observed.
//
// Train may run concurrently with the serving side (Publish, replica
// restores, key rotation): the persistent state they touch is
// serialized internally, and a save never writes a frame a published
// version names, so training never tears a model being restored.
func (f *Framework) Train(ctx context.Context, opts ...TrainOption) error {
	var tc trainConfig
	for _, opt := range opts {
		opt(&tc)
	}
	if f.Crashed() {
		return ErrCrashedDown
	}
	if f.Data == nil {
		return ErrNoDataset
	}
	freq := f.cfg.MirrorFreq
	return f.Enclave.Ecall(func() error {
		if freq > 0 {
			f.modelMu.Lock()
			f.pmMu.Lock()
			err := f.attachMirror()
			f.pmMu.Unlock()
			f.modelMu.Unlock()
			if err != nil {
				return err
			}
		}
		batch := f.Net.Config.Batch
		lastMirrored := -1
		for !tc.stopSet || f.Net.Iteration < tc.stopAt {
			select {
			case <-ctx.Done():
				return f.stopTraining(ctx, freq, lastMirrored)
			default:
			}
			f.pmMu.Lock()
			x, y, err := f.Data.Batch(f.rng, batch)
			f.pmMu.Unlock()
			if err != nil {
				return fmt.Errorf("core: batch: %w", err)
			}
			f.Enclave.Touch(4 * (len(x) + len(y)))

			f.modelMu.Lock()
			loss, err := f.Net.TrainBatch(x, y, batch)
			f.synced = false
			if err != nil {
				f.modelMu.Unlock()
				return fmt.Errorf("core: iteration %d: %w", f.Net.Iteration, err)
			}
			iter := f.Net.Iteration
			if freq > 0 && iter%freq == 0 {
				f.pmMu.Lock()
				err = f.Mirror.MirrorOut(f.Net)
				f.pmMu.Unlock()
				if err != nil {
					f.modelMu.Unlock()
					return fmt.Errorf("core: mirror out: %w", err)
				}
				lastMirrored, f.synced = iter, true
			}
			f.modelMu.Unlock()

			if tc.progress != nil {
				tc.progress(iter, loss)
			}
		}
		return nil
	})
}

// stopTraining finishes a cancelled run at a mirror-consistent
// boundary: flush the current model to the mirror if the mirrored state
// is behind, then surface the cancellation cause.
func (f *Framework) stopTraining(ctx context.Context, freq, lastMirrored int) error {
	f.modelMu.Lock()
	iter := f.Net.Iteration
	if freq > 0 && iter != lastMirrored {
		f.pmMu.Lock()
		err := f.Mirror.MirrorOut(f.Net)
		f.pmMu.Unlock()
		if err != nil {
			f.modelMu.Unlock()
			return fmt.Errorf("core: final mirror out at iteration %d: %w", iter, err)
		}
		f.synced = true
	}
	f.modelMu.Unlock()
	return fmt.Errorf("core: training interrupted at iteration %d: %w", iter, context.Cause(ctx))
}
