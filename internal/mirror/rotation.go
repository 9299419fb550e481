package mirror

import (
	"errors"
	"fmt"
	"math"

	"plinius/internal/engine"
	"plinius/internal/romulus"
)

// Crash-safe key rotation marker (root slot RootRotation).
//
// DataMatrix.ResealFrom flips rows to the new key in chunked transactions,
// so a crash mid-rotation leaves mixed key epochs: early rows decrypt
// only under the new key, late rows only under the old. Without a
// durable record that a rotation was underway, recovery reads the
// first mixed row, fails authentication and gives up.
//
// The marker makes rotation crash-safe: before the first row is
// resealed, a durable record is written holding (a) an in-progress
// flag, (b) the next row to reseal — advanced inside each reseal
// chunk's transaction, so it is always exactly the torn boundary — and
// (c) the new data key, sealed under the old key, so a recovering
// enclave provisioned with the pre-rotation key can unwrap the new one
// and finish the job: reseal rows from the recorded boundary, re-seal
// the training mirror (whichever epoch it was left in), republish, and
// clear the marker.
//
// Persistent layout (all little-endian uint64 except the key blob):
//
//	state | nextRow | wrappedLen | wrapped new key (sealed, old epoch)
const (
	rotHdrState   = 0
	rotHdrNextRow = 8
	rotHdrKeyLen  = 16
	rotHdrKey     = 24
	// rotKeyMax bounds the wrapped-key blob: sealed 16-byte key.
	rotKeyMax  = engine.IVSize + engine.KeySize + engine.TagSize
	rotHdrSize = rotHdrKey + rotKeyMax

	rotStateIdle       = 0
	rotStateInProgress = 1
)

// Rotation errors.
var (
	ErrRotationCorrupt = errors.New("mirror: rotation marker is corrupt")
)

// Rotation is a handle to the persistent rotation marker.
type Rotation struct {
	rom *romulus.Romulus
	off int
}

// BeginRotation durably records that a key rotation is starting: the
// new key is sealed under oldEng (the pre-rotation engine) and the
// marker flips to in-progress with the reseal cursor at row 0. The
// marker region is allocated on first use and reused by every later
// rotation.
func BeginRotation(rom *romulus.Romulus, oldEng *engine.Engine, newKey []byte) (*Rotation, error) {
	if len(newKey) != engine.KeySize {
		return nil, fmt.Errorf("%w: key must be %d bytes, got %d", engine.ErrBadKey, engine.KeySize, len(newKey))
	}
	wrapped, err := oldEng.Seal(newKey)
	if err != nil {
		return nil, fmt.Errorf("mirror: wrap rotation key: %w", err)
	}
	if len(wrapped) > rotKeyMax {
		return nil, fmt.Errorf("%w: wrapped key %d bytes", ErrRotationCorrupt, len(wrapped))
	}
	off, err := rom.Root(RootRotation)
	if err != nil {
		return nil, err
	}
	r := &Rotation{rom: rom, off: off}
	err = rom.Update(func() error {
		if r.off == 0 {
			alloc, err := rom.Alloc(rotHdrSize)
			if err != nil {
				return err
			}
			r.off = alloc
			if err := rom.SetRoot(RootRotation, alloc); err != nil {
				return err
			}
		}
		if err := rom.StoreUint64(r.off+rotHdrNextRow, 0); err != nil {
			return err
		}
		if err := rom.StoreUint64(r.off+rotHdrKeyLen, uint64(len(wrapped))); err != nil {
			return err
		}
		if err := rom.Store(r.off+rotHdrKey, wrapped); err != nil {
			return err
		}
		// The in-progress flag flips last within the transaction; a
		// crash before commit leaves the previous marker state intact.
		return rom.StoreUint64(r.off+rotHdrState, rotStateInProgress)
	})
	if err != nil {
		return nil, fmt.Errorf("mirror: begin rotation: %w", err)
	}
	return r, nil
}

// OpenRotation attaches to the rotation marker after a restart. It
// returns (nil, false, nil) when no rotation was ever started or the
// last one finished cleanly, and the marker with inProgress=true when
// a crash interrupted one.
func OpenRotation(rom *romulus.Romulus) (*Rotation, bool, error) {
	off, err := rom.Root(RootRotation)
	if err != nil {
		return nil, false, err
	}
	if off == 0 {
		return nil, false, nil
	}
	state, err := rom.LoadUint64(off + rotHdrState)
	if err != nil {
		return nil, false, err
	}
	r := &Rotation{rom: rom, off: off}
	switch state {
	case rotStateIdle:
		return r, false, nil
	case rotStateInProgress:
		return r, true, nil
	default:
		return nil, false, fmt.Errorf("%w: state %d", ErrRotationCorrupt, state)
	}
}

// NewKey unwraps the rotation's target key with the pre-rotation
// engine (the one the recovering enclave was provisioned with).
func (r *Rotation) NewKey(oldEng *engine.Engine) ([]byte, error) {
	n, err := r.rom.LoadUint64(r.off + rotHdrKeyLen)
	if err != nil {
		return nil, err
	}
	if n == 0 || n > rotKeyMax {
		return nil, fmt.Errorf("%w: wrapped key length %d", ErrRotationCorrupt, n)
	}
	wrapped := make([]byte, n)
	if err := r.rom.Load(r.off+rotHdrKey, wrapped); err != nil {
		return nil, err
	}
	key, err := oldEng.Open(wrapped)
	if err != nil {
		return nil, fmt.Errorf("mirror: unwrap rotation key: %w", err)
	}
	if len(key) != engine.KeySize {
		return nil, fmt.Errorf("%w: unwrapped %d bytes", ErrRotationCorrupt, len(key))
	}
	return key, nil
}

// NextRow returns the reseal cursor: every row below it is already
// under the new key.
func (r *Rotation) NextRow() (int, error) {
	n, err := r.rom.LoadUint64(r.off + rotHdrNextRow)
	if err != nil {
		return 0, err
	}
	if n > math.MaxInt32 {
		return 0, fmt.Errorf("%w: reseal cursor %d", ErrRotationCorrupt, n)
	}
	return int(n), nil
}

// Advance persists the reseal cursor. It must run inside the same
// transaction as the chunk it describes (DataMatrix.ResealFrom calls
// it that way), so cursor and rows flip atomically.
func (r *Rotation) Advance(next int) error {
	return r.rom.StoreUint64(r.off+rotHdrNextRow, uint64(next))
}

// Finish durably marks the rotation complete.
func (r *Rotation) Finish() error {
	return r.rom.Update(func() error {
		return r.rom.StoreUint64(r.off+rotHdrState, rotStateIdle)
	})
}
