package core

import (
	"encoding/binary"
	"fmt"
	"time"

	"plinius/internal/engine"
)

// Checkpoint/restore instrumentation for the paper's central comparison
// (Fig. 7, Table I): the PM mirroring mechanism versus traditional
// checkpointing on an SSD. Each operation returns a StepTiming with the
// paper's breakdown — encrypt/write for saves, read/decrypt for
// restores.
//
// Attribution rules, which the Fig. 7 and Table I rows of the paper
// ledger (EXPERIMENTS.md) read: AES wall-clock time goes to
// Encrypt/Decrypt, plus EPC paging (page-swap counter x cost) which the
// paper attributes to the step doing the touching — encryption on
// saves, reads on restores. Device time (PM or SSD) goes to Write/Read,
// plus ocall transition time and the MEE boundary-copy cost.

// StepTiming is one Fig. 7 bar: the latency split of a save or restore.
type StepTiming struct {
	Encrypt time.Duration
	Write   time.Duration
	Read    time.Duration
	Decrypt time.Duration
}

// Total returns the end-to-end latency.
func (s StepTiming) Total() time.Duration {
	return s.Encrypt + s.Write + s.Read + s.Decrypt
}

// costSnap captures every cost counter involved in attribution.
type costSnap struct {
	pmMod     time.Duration
	ssdMod    time.Duration
	enclMod   time.Duration
	ecalls    uint64
	ocalls    uint64
	pageSwaps uint64
}

func (f *Framework) snap() costSnap {
	st := f.Enclave.Stats()
	return costSnap{
		pmMod:     f.PM.Clock().Modeled(),
		ssdMod:    f.SSD.Clock().Modeled(),
		enclMod:   f.Enclave.Clock().Modeled(),
		ecalls:    st.Ecalls,
		ocalls:    st.Ocalls,
		pageSwaps: st.PageSwaps,
	}
}

// delta decomposes the enclave/device cost movement since s0.
type costDelta struct {
	pm          time.Duration
	ssd         time.Duration
	paging      time.Duration
	transitions time.Duration
	copyAcross  time.Duration
}

func (f *Framework) delta(s0 costSnap) costDelta {
	s1 := f.snap()
	prof := f.Enclave.Profile()
	paging := time.Duration(s1.pageSwaps-s0.pageSwaps) * prof.PageSwapCost
	transitions := time.Duration((s1.ecalls-s0.ecalls)+(s1.ocalls-s0.ocalls)) * prof.TransitionCost()
	copyAcross := s1.enclMod - s0.enclMod - paging - transitions
	if copyAcross < 0 {
		copyAcross = 0
	}
	return costDelta{
		pm:          s1.pmMod - s0.pmMod,
		ssd:         s1.ssdMod - s0.ssdMod,
		paging:      paging,
		transitions: transitions,
		copyAcross:  copyAcross,
	}
}

// MirrorSave mirrors the model out to PM and returns the encrypt/write
// breakdown.
func (f *Framework) MirrorSave() (StepTiming, error) {
	f.modelMu.Lock()
	defer f.modelMu.Unlock()
	f.pmMu.Lock()
	defer f.pmMu.Unlock()
	if f.crashed {
		return StepTiming{}, ErrCrashedDown
	}
	if !f.mirroring() {
		return StepTiming{}, ErrMirroringOff
	}
	if err := f.attachMirror(); err != nil {
		return StepTiming{}, err
	}
	s0 := f.snap()
	if err := f.Mirror.MirrorOut(f.Net); err != nil {
		return StepTiming{}, err
	}
	f.synced = true
	// Outbound stores to PM are posted writes: no inbound MEE stall, so
	// no CopyAcross charge on the save path.
	d := f.delta(s0)
	return StepTiming{
		Encrypt: f.Mirror.LastSealDuration() + d.paging,
		Write:   d.pm + d.copyAcross + d.transitions,
	}, nil
}

// MirrorRestore mirrors the model in from PM and returns the
// read/decrypt breakdown.
func (f *Framework) MirrorRestore() (StepTiming, error) {
	f.modelMu.Lock()
	defer f.modelMu.Unlock()
	f.pmMu.Lock()
	defer f.pmMu.Unlock()
	if f.crashed {
		return StepTiming{}, ErrCrashedDown
	}
	if !f.mirroring() {
		return StepTiming{}, ErrMirroringOff
	}
	if err := f.attachMirror(); err != nil {
		return StepTiming{}, err
	}
	s0 := f.snap()
	if _, err := f.Mirror.MirrorIn(f.Net); err != nil {
		return StepTiming{}, err
	}
	f.synced = true
	d := f.delta(s0)
	return StepTiming{
		Read:    d.pm + d.copyAcross + d.transitions + d.paging,
		Decrypt: f.Mirror.LastOpenDuration(),
	}, nil
}

// SSD checkpoint format: magic(8) iteration(8) bufCount(8), then per
// buffer len(8) + sealed bytes. Matches the paper's baseline: encrypt
// in the enclave, then ocall fwrite + fsync per buffer.
const ssdCkptMagic = 0x504C4E434B5054 // "PLNCKPT"

// SSDSave checkpoints the model to the SSD device and returns the
// encrypt/write breakdown.
func (f *Framework) SSDSave(name string) (StepTiming, error) {
	f.modelMu.Lock()
	defer f.modelMu.Unlock()
	if f.crashed {
		return StepTiming{}, ErrCrashedDown
	}
	s0 := f.snap()
	var sealWall time.Duration

	fh, err := f.SSD.Create(name)
	if err != nil {
		return StepTiming{}, fmt.Errorf("core: ssd create: %w", err)
	}
	bufCount := 0
	for _, l := range f.Net.Layers {
		bufCount += len(l.Params())
	}
	var hdr [24]byte
	binary.LittleEndian.PutUint64(hdr[0:], ssdCkptMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(f.Net.Iteration))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(bufCount))
	err = f.Enclave.Ocall(func() error {
		_, err := fh.Write(hdr[:])
		if err != nil {
			return err
		}
		return fh.Sync()
	})
	if err != nil {
		return StepTiming{}, fmt.Errorf("core: ssd header: %w", err)
	}
	sc := f.Engine.AcquireScratch()
	defer f.Engine.ReleaseScratch(sc)
	for li, l := range f.Net.Layers {
		for bi, p := range l.Params() {
			start := time.Now()
			sealed, err := f.Engine.SealFloatsWith(sc, p)
			sealWall += time.Since(start)
			if err != nil {
				return StepTiming{}, fmt.Errorf("core: seal layer %d buf %d: %w", li, bi, err)
			}
			err = f.Enclave.Ocall(func() error {
				var lenBuf [8]byte
				binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(sealed)))
				if _, err := fh.Write(lenBuf[:]); err != nil {
					return err
				}
				if _, err := fh.Write(sealed); err != nil {
					return err
				}
				return fh.Sync() // flush libC buffers + fsync per fwrite (§VI)
			})
			if err != nil {
				return StepTiming{}, fmt.Errorf("core: ssd write: %w", err)
			}
		}
	}
	if err := fh.Close(); err != nil {
		return StepTiming{}, fmt.Errorf("core: ssd close: %w", err)
	}
	d := f.delta(s0)
	return StepTiming{
		Encrypt: sealWall + d.paging,
		Write:   d.ssd + d.copyAcross + d.transitions,
	}, nil
}

// SSDRestore loads an SSD checkpoint into the model and returns the
// read/decrypt breakdown.
func (f *Framework) SSDRestore(name string) (StepTiming, error) {
	f.modelMu.Lock()
	defer f.modelMu.Unlock()
	if f.crashed {
		return StepTiming{}, ErrCrashedDown
	}
	s0 := f.snap()
	var openWall time.Duration

	fh, err := f.SSD.Open(name)
	if err != nil {
		return StepTiming{}, fmt.Errorf("core: ssd open: %w", err)
	}
	var hdr [24]byte
	err = f.Enclave.Ocall(func() error {
		_, err := fh.Read(hdr[:])
		return err
	})
	if err != nil {
		return StepTiming{}, fmt.Errorf("core: ssd header: %w", err)
	}
	if binary.LittleEndian.Uint64(hdr[0:]) != ssdCkptMagic {
		return StepTiming{}, fmt.Errorf("core: %q is not a Plinius checkpoint", name)
	}
	iter := int(binary.LittleEndian.Uint64(hdr[8:]))
	bufCount := int(binary.LittleEndian.Uint64(hdr[16:]))

	var params [][]float32
	for _, l := range f.Net.Layers {
		params = append(params, l.Params()...)
	}
	if bufCount != len(params) {
		return StepTiming{}, fmt.Errorf("core: checkpoint has %d buffers, model has %d", bufCount, len(params))
	}
	sc := f.Engine.AcquireScratch()
	defer f.Engine.ReleaseScratch(sc)
	for i, p := range params {
		var sealed []byte
		err := f.Enclave.Ocall(func() error {
			var lenBuf [8]byte
			if _, err := fh.Read(lenBuf[:]); err != nil {
				return err
			}
			n := int(binary.LittleEndian.Uint64(lenBuf[:]))
			if n != engine.SealedLen(4*len(p)) {
				return fmt.Errorf("buffer %d has %d bytes, want %d", i, n, engine.SealedLen(4*len(p)))
			}
			sealed = sc.SealedBuf(n)
			_, err := fh.Read(sealed)
			return err
		})
		if err != nil {
			return StepTiming{}, fmt.Errorf("core: ssd read: %w", err)
		}
		f.Enclave.CopyAcross(len(sealed))
		start := time.Now()
		err = f.Engine.OpenFloatsAAD(p, sealed, nil)
		openWall += time.Since(start)
		if err != nil {
			return StepTiming{}, fmt.Errorf("core: open buffer %d: %w", i, err)
		}
	}
	if err := fh.Close(); err != nil {
		return StepTiming{}, fmt.Errorf("core: ssd close: %w", err)
	}
	f.Net.Iteration, f.synced = iter, false
	d := f.delta(s0)
	return StepTiming{
		Read:    d.ssd + d.copyAcross + d.transitions + d.paging,
		Decrypt: openWall,
	}, nil
}
