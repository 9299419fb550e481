package mirror

import (
	"fmt"

	"plinius/internal/darknet"
	"plinius/internal/engine"
	"plinius/internal/romulus"
)

// keyRecordSize is the size of the key record (root slot RootRotation):
// the data key a rotation installed, sealed under the key it replaced
// and bound to keyRecordAAD, so no other frame opens as a record.
const keyRecordSize = engine.IVSize + engine.KeySize + engine.TagSize

var keyRecordAAD = []byte("plinius key record")

// RotateKey re-seals under newEng, the engine of newKey, everything
// oldEng sealed that the store still names (paper §IV: one data key
// seals every PM object): the data matrix d, which may be nil, and net
// as one new frame that becomes the training mirror m's latest
// generation (when m is not nil) and s's next version, which it
// returns. Frames only pinned readers still hold keep the old key. The
// frame is sealed first; then one durable transaction re-seals every
// row in place, names the frame, and stores the key record, so a crash
// leaves PM wholly under one key. d and m switch to newEng once that
// transaction has committed.
func RotateKey(oldEng, newEng *engine.Engine, newKey []byte, net *darknet.Network, s *Store, m *Model, d *DataMatrix, opts ...PublishOption) (uint64, error) {
	var record [keyRecordSize]byte
	if err := oldEng.SealInto(record[:], newKey, keyRecordAAD); err != nil {
		return 0, fmt.Errorf("mirror: seal key record: %w", err)
	}
	extra := func() error {
		if d != nil {
			if err := d.reseal(newEng); err != nil {
				return err
			}
		}
		return storeKeyRecord(s.rom, record[:])
	}
	ver, err := s.save(newEng, net, m, true, true, opts, extra)
	if err == nil && d != nil {
		d.eng = newEng
	}
	return ver, err
}

// storeKeyRecord stores record as the key record, in the open
// transaction, allocating and rooting its region on first use.
func storeKeyRecord(rom *romulus.Romulus, record []byte) error {
	off, err := rom.Root(RootRotation)
	if err == nil && off == 0 {
		if off, err = rom.Alloc(keyRecordSize); err == nil {
			err = rom.SetRoot(RootRotation, off)
		}
	}
	if err != nil {
		return err
	}
	return rom.Store(off, record)
}

// RotatedKey returns the key the last rotation installed if its record
// opens under eng, that is if eng holds the key that rotation replaced:
// the rotation committed, but a crash beat the enclave's switch to the
// new key. It returns nil, nil when no rotation ever committed, and
// engine.ErrAuth when eng holds the installed key already.
func RotatedKey(rom *romulus.Romulus, eng *engine.Engine) ([]byte, error) {
	off, err := rom.Root(RootRotation)
	if err != nil || off == 0 {
		return nil, err
	}
	var record [keyRecordSize]byte
	if err := rom.Load(off, record[:]); err != nil {
		return nil, err
	}
	key := make([]byte, engine.KeySize)
	if err := eng.OpenAAD(key, record[:], keyRecordAAD); err != nil {
		return nil, err
	}
	return key, nil
}
