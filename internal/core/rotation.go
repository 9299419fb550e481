package core

import (
	"errors"
	"fmt"

	"plinius/internal/darknet"
	"plinius/internal/engine"
	"plinius/internal/mirror"
)

// Crash-safe key rotation recovery: RotateKey persists a rotation
// marker (mirror.BeginRotation) before the first row is resealed, so a
// crash mid-rotation — which leaves the data matrix with mixed key
// epochs and the mirror under either key — is detected by Recover and
// finished instead of surfacing as an authentication failure on first
// use. The recovering enclave holds the pre-rotation key (the one its
// owner provisioned); the marker carries the new key sealed under it.

// errAbortReseal is the test hook's abort sentinel: it interrupts the
// reseal between chunks the way a crash would, leaving a committed
// marker cursor behind.
var errAbortReseal = errors.New("core: reseal aborted by test hook")

// resealMark wraps a rotation marker's Advance with the test-abort
// hook (testAbortResealAfter > 0 aborts after that many chunks).
func (f *Framework) resealMark(rot *mirror.Rotation) func(int) error {
	if f.testAbortResealAfter <= 0 {
		return rot.Advance
	}
	chunks := 0
	return func(next int) error {
		chunks++
		if chunks > f.testAbortResealAfter {
			return errAbortReseal
		}
		return rot.Advance(next)
	}
}

// maybeFinishRotation checks the rotation marker and, when a crash
// tore a rotation, completes it: reseal the remaining data rows from
// the recorded cursor, bring the training mirror to the new key
// (whichever epoch the crash left it in), republish, and clear the
// marker. Called from Recover with modelMu and pmMu held, after the
// data matrix is re-attached and before any mirror restore, so no
// mixed-epoch state is ever decrypted with a single key.
func (f *Framework) maybeFinishRotation() error {
	rot, inProgress, err := mirror.OpenRotation(f.Rom)
	if err != nil {
		return fmt.Errorf("core: open rotation marker: %w", err)
	}
	if !inProgress {
		return nil
	}
	return f.Enclave.Ecall(func() error {
		newKey, err := rot.NewKey(f.Engine)
		if err != nil {
			return fmt.Errorf("core: recover rotation key: %w", err)
		}
		newEng, err := engine.New(newKey, engine.WithEnclave(f.Enclave))
		if err != nil {
			return fmt.Errorf("core: recover rotation engine: %w", err)
		}
		if f.Data != nil {
			next, err := rot.NextRow()
			if err != nil {
				return fmt.Errorf("core: rotation cursor: %w", err)
			}
			if err := f.Data.ResealFrom(newEng, next, rot.Advance); err != nil {
				return fmt.Errorf("core: finish data reseal: %w", err)
			}
		}
		restored := false
		if mirror.Exists(f.Rom) {
			m, err := mirror.OpenModel(f.Rom, f.Engine, mirror.WithEnclave(f.Enclave))
			if err != nil {
				return fmt.Errorf("core: open mirror mid-rotation: %w", err)
			}
			// The crash may have hit before or after the mirror was
			// resealed: probe with the old key first, then the new.
			if _, err := m.MirrorIn(f.Net); err == nil {
				// Old epoch: restore succeeded, reseal under the new key.
				m.SetEngine(newEng)
				if err := m.MirrorOut(f.Net); err != nil {
					return fmt.Errorf("core: reseal mirror: %w", err)
				}
			} else if errors.Is(err, engine.ErrAuth) {
				// New epoch already: just adopt it.
				m.SetEngine(newEng)
				if _, err := m.MirrorIn(f.Net); err != nil {
					return fmt.Errorf("core: restore resealed mirror: %w", err)
				}
			} else {
				return fmt.Errorf("core: restore mirror mid-rotation: %w", err)
			}
			f.Mirror = m
			restored = true
		}
		// With mirroring off the served model lives only in the
		// publication table: restore it into the enclave (same
		// two-epoch probe) so the republish below re-seals the trained
		// weights — not the random ones Recover just built.
		if !restored && mirror.PublicationExists(f.Rom) {
			if err := f.attachPublication(); err != nil {
				return err
			}
			if f.pub.LatestVersion() > 0 {
				pin, err := f.pub.Pin(0)
				if err != nil {
					return fmt.Errorf("core: pin published mid-rotation: %w", err)
				}
				m, err := pin.Open(f.Engine, darknet.FP32, mirror.WithEnclave(f.Enclave))
				if err != nil {
					pin.Release()
					return fmt.Errorf("core: open published mid-rotation: %w", err)
				}
				if _, err := m.MirrorIn(f.Net); err != nil {
					if !errors.Is(err, engine.ErrAuth) {
						pin.Release()
						return fmt.Errorf("core: restore published mid-rotation: %w", err)
					}
					m.SetEngine(newEng)
					if _, err := m.MirrorIn(f.Net); err != nil {
						pin.Release()
						return fmt.Errorf("core: restore republished snapshot: %w", err)
					}
				}
				pin.Release()
				restored = true
			}
		}
		f.key = newKey
		f.Engine = newEng
		// Republish only a restored model: a framework that never had a
		// mirror or publication has nothing served, and publishing
		// Recover's fresh random weights would supersede nothing worth
		// keeping anyway — worse, with a stale publication it would
		// replace trained weights with noise.
		if restored {
			if err := f.attachPublication(); err != nil {
				return err
			}
			if _, err := f.pub.PublishOut(newEng, f.Net); err != nil {
				return fmt.Errorf("core: republish under rotated key: %w", err)
			}
		}
		if err := rot.Finish(); err != nil {
			return fmt.Errorf("core: finish rotation: %w", err)
		}
		return nil
	})
}
