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
// oldEng sealed in p's heap (paper §IV: one data key seals every PM
// object): the data matrix d and the training mirror m, either of which
// may be nil, and net as p's next version, which it returns. The mirror
// and the publication are sealed into free payload halves first; then
// one durable transaction re-seals every row in place, flips both, and
// stores the key record, so a crash leaves PM wholly under one key. d
// and m switch to newEng once that transaction has committed.
func RotateKey(oldEng, newEng *engine.Engine, newKey []byte, net *darknet.Network, p *Publication, m *Model, d *DataMatrix, opts ...PublishOption) (uint64, error) {
	var record [keyRecordSize]byte
	if err := oldEng.SealInto(record[:], newKey, keyRecordAAD); err != nil {
		return 0, fmt.Errorf("mirror: seal key record: %w", err)
	}
	// The publication goes first: laying its slot out may allocate, and
	// a mirror AllocModel planned is laid out at the cursors it leaves.
	pub, err := p.write(newEng, net, opts...)
	if err != nil {
		return 0, err
	}
	var out written
	if m != nil {
		if out, err = m.writeOut(newEng, net); err != nil {
			return 0, err
		}
	}
	err = p.rom.Update(func() error {
		if d != nil {
			if err := d.reseal(newEng); err != nil {
				return err
			}
		}
		if m != nil {
			if err := out.flip(); err != nil {
				return err
			}
		}
		if err := pub.flip(); err != nil {
			return err
		}
		return storeKeyRecord(p.rom, record[:])
	})
	if err != nil {
		return 0, err
	}
	if d != nil {
		d.eng = newEng
	}
	if m != nil {
		out.commit()
	}
	pub.commit()
	return pub.version, nil
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
