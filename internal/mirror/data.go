package mirror

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"plinius/internal/enclave"
	"plinius/internal/engine"
	"plinius/internal/mnist"
	"plinius/internal/obs"
	"plinius/internal/romulus"
)

// mBatchReads counts training rows loaded (and decrypted) from the PM
// data matrix by Batch — the data half of an iteration's restore
// traffic.
var mBatchReads = obs.Default().Counter("mirror_batch_reads_total",
	"Training rows loaded (and decrypted) from the PM data matrix by Batch.")

// PM-data module (paper §IV/§V): training data is loaded once from
// secondary storage into a persistent matrix in byte-addressable PM,
// row-encrypted with the data key. Each training iteration decrypts a
// batch of rows into enclave memory (Fig. 5, steps 5-6); after a crash
// the data is instantly available again without re-reading storage.
//
// Persistent layout (root slot RootData, values little-endian uint64):
//
//	data header: n | plainRowLen | storedRowLen | encrypted | dataOff
//	rows       : n contiguous storedRowLen records
//
// A row's plaintext is image floats ‖ one-hot label floats.

const (
	dataHdrN         = 0
	dataHdrPlainRow  = 8
	dataHdrStoredRow = 16
	dataHdrEncrypted = 24
	dataHdrDataOff   = 32
	dataHdrSize      = 40

	// loadChunkRows bounds the size of one data-loading transaction so
	// the volatile redo log stays small (§V: "this could be done in
	// batches if the training dataset is very large").
	loadChunkRows = 64
)

// DataMatrix is a handle to the persistent training-data matrix.
type DataMatrix struct {
	rom       *romulus.Romulus
	eng       *engine.Engine
	encl      *enclave.Enclave
	headOff   int
	n         int
	plainRow  int
	storedRow int
	encrypted bool
	dataOff   int
}

// Data errors.
var (
	ErrNoData      = errors.New("mirror: no persistent training data in PM")
	ErrDataCorrupt = errors.New("mirror: persistent training data is corrupt")
)

// DataOption configures a DataMatrix.
type DataOption func(*DataMatrix)

// WithDataEnclave charges EPC paging for batch plaintext staged in
// enclave memory.
func WithDataEnclave(e *enclave.Enclave) DataOption {
	return func(d *DataMatrix) { d.encl = e }
}

// WithPlaintextRows stores rows unencrypted. Only used by the Fig. 8
// baseline that measures the overhead of batched decryption.
func WithPlaintextRows() DataOption {
	return func(d *DataMatrix) { d.encrypted = false }
}

// DataExists reports whether a persistent data matrix is rooted.
func DataExists(rom *romulus.Romulus) bool {
	off, err := rom.Root(RootData)
	return err == nil && off != 0
}

// rowPlainLen is the plaintext bytes per row.
func rowPlainLen() int {
	return 4 * (mnist.Rows*mnist.Cols + mnist.Classes)
}

// LoadData encrypts (unless WithPlaintextRows) and copies the dataset
// into PM, chunking the copy across transactions to bound the redo log.
func LoadData(rom *romulus.Romulus, eng *engine.Engine, ds *mnist.Dataset, opts ...DataOption) (*DataMatrix, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	d := &DataMatrix{rom: rom, eng: eng, encrypted: true, plainRow: rowPlainLen()}
	for _, opt := range opts {
		opt(d)
	}
	d.n = ds.N
	if d.encrypted {
		d.storedRow = engine.SealedLen(d.plainRow)
	} else {
		d.storedRow = d.plainRow
	}

	// Allocate header + matrix in one transaction.
	err := rom.Update(func() error {
		hdr, err := rom.Alloc(dataHdrSize)
		if err != nil {
			return err
		}
		d.headOff = hdr
		dataOff, err := rom.Alloc(d.n * d.storedRow)
		if err != nil {
			return err
		}
		d.dataOff = dataOff
		enc := uint64(0)
		if d.encrypted {
			enc = 1
		}
		fields := []uint64{uint64(d.n), uint64(d.plainRow), uint64(d.storedRow), enc, uint64(dataOff)}
		for i, v := range fields {
			if err := rom.StoreUint64(hdr+8*i, v); err != nil {
				return err
			}
		}
		return rom.SetRoot(RootData, hdr)
	})
	if err != nil {
		return nil, fmt.Errorf("data alloc: %w", err)
	}

	// Copy rows in chunked transactions.
	for start := 0; start < d.n; start += loadChunkRows {
		end := start + loadChunkRows
		if end > d.n {
			end = d.n
		}
		err := rom.Update(func() error {
			for i := start; i < end; i++ {
				row, err := d.encodeRow(ds, i)
				if err != nil {
					return err
				}
				if err := rom.Store(d.dataOff+i*d.storedRow, row); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("data load rows %d-%d: %w", start, end, err)
		}
	}
	return d, nil
}

func (d *DataMatrix) encodeRow(ds *mnist.Dataset, i int) ([]byte, error) {
	plain := make([]float32, 0, mnist.Rows*mnist.Cols+mnist.Classes)
	plain = append(plain, ds.Image(i)...)
	plain = append(plain, ds.OneHot(i)...)
	raw := engine.FloatsToBytes(plain)
	if !d.encrypted {
		return raw, nil
	}
	sealed, err := d.eng.Seal(raw)
	if err != nil {
		return nil, fmt.Errorf("seal row %d: %w", i, err)
	}
	return sealed, nil
}

// OpenData attaches to the persistent data matrix after a restart.
func OpenData(rom *romulus.Romulus, eng *engine.Engine, opts ...DataOption) (*DataMatrix, error) {
	hdr, err := rom.Root(RootData)
	if err != nil {
		return nil, err
	}
	if hdr == 0 {
		return nil, ErrNoData
	}
	d := &DataMatrix{rom: rom, eng: eng, headOff: hdr}
	for _, opt := range opts {
		opt(d)
	}
	var fields [5]uint64
	for i := range fields {
		if fields[i], err = rom.LoadUint64(hdr + 8*i); err != nil {
			return nil, err
		}
	}
	d.n = int(fields[0])
	d.plainRow = int(fields[1])
	d.storedRow = int(fields[2])
	d.encrypted = fields[3] != 0
	d.dataOff = int(fields[4])
	if d.n <= 0 || d.plainRow != rowPlainLen() || d.storedRow < d.plainRow || d.dataOff <= 0 {
		return nil, fmt.Errorf("%w: header %+v", ErrDataCorrupt, fields)
	}
	return d, nil
}

// N returns the number of rows.
func (d *DataMatrix) N() int { return d.n }

// Encrypted reports whether rows are sealed.
func (d *DataMatrix) Encrypted() bool { return d.encrypted }

// StoredBytes returns the persistent footprint of the matrix.
func (d *DataMatrix) StoredBytes() int { return d.n * d.storedRow }

// Row decrypts (if sealed) row i into image and one-hot label vectors.
func (d *DataMatrix) Row(i int) (img, label []float32, err error) {
	if i < 0 || i >= d.n {
		return nil, nil, fmt.Errorf("%w: row %d of %d", ErrDataCorrupt, i, d.n)
	}
	stored := make([]byte, d.storedRow)
	vals := make([]float32, d.plainRow/4)
	if err := d.fetchRow(i, stored, vals); err != nil {
		return nil, nil, err
	}
	imgLen := mnist.Rows * mnist.Cols
	return vals[:imgLen], vals[imgLen:], nil
}

// fetchRow loads stored row i through the caller's PM read buffer and
// decodes it into vals (plainRow/4 floats) without allocating. The
// encrypted and plaintext paths share every step but one — AES-GCM open
// vs a plain little-endian decode — which is what lets the Fig. 8
// baseline isolate the cost of batched decryption.
func (d *DataMatrix) fetchRow(i int, stored []byte, vals []float32) error {
	if err := d.rom.Load(d.dataOff+i*d.storedRow, stored); err != nil {
		return err
	}
	if d.encrypted {
		if err := d.eng.OpenFloatsInto(vals, stored); err != nil {
			return fmt.Errorf("decrypt row %d: %w", i, err)
		}
	} else if err := engine.DecodeFloats(vals, stored); err != nil {
		return fmt.Errorf("%w: row %d: %v", ErrDataCorrupt, i, err)
	}
	if d.encl != nil {
		d.encl.Touch(d.plainRow)
	}
	return nil
}

// Reseal re-encrypts every row under newEng's data key and switches the
// matrix to it — the data half of key rotation. Rows are rewritten in
// chunked durable transactions (like LoadData), so each chunk flips
// atomically. Callers that must survive a crash mid-rotation persist a
// rotation marker first and use ResealFrom with the marker's Advance,
// so the torn boundary is always recorded (see BeginRotation).
// Plaintext matrices (the Fig. 8 baseline) have nothing to re-seal.
func (d *DataMatrix) Reseal(newEng *engine.Engine) error {
	return d.ResealFrom(newEng, 0, nil)
}

// ResealFrom re-encrypts rows [start, N) under newEng's key, calling
// mark (when non-nil) with the next unresealed row index inside each
// chunk's transaction — chunk and cursor commit atomically, which is
// what makes a crash at any point recoverable: rows below the recorded
// cursor are under the new key, rows at or above it under the old.
// Rows below start are assumed already resealed (the crash-recovery
// resume path). On success the matrix switches to newEng.
func (d *DataMatrix) ResealFrom(newEng *engine.Engine, start int, mark func(next int) error) error {
	if !d.encrypted {
		d.eng = newEng
		return nil
	}
	if start < 0 || start > d.n {
		return fmt.Errorf("%w: reseal start %d of %d", ErrDataCorrupt, start, d.n)
	}
	stored := make([]byte, d.storedRow)
	for ; start < d.n; start += loadChunkRows {
		end := start + loadChunkRows
		if end > d.n {
			end = d.n
		}
		chunkStart := start
		err := d.rom.Update(func() error {
			for i := chunkStart; i < end; i++ {
				if err := d.rom.Load(d.dataOff+i*d.storedRow, stored); err != nil {
					return err
				}
				plain, err := d.eng.Open(stored)
				if err != nil {
					return fmt.Errorf("reseal: decrypt row %d: %w", i, err)
				}
				resealed, err := newEng.Seal(plain)
				if err != nil {
					return fmt.Errorf("reseal: encrypt row %d: %w", i, err)
				}
				if err := d.rom.Store(d.dataOff+i*d.storedRow, resealed); err != nil {
					return err
				}
			}
			if mark != nil {
				return mark(end)
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("data reseal rows %d-%d: %w", chunkStart, end, err)
		}
	}
	d.eng = newEng
	return nil
}

// batchParallelBytes is the stored-batch size below which Batch stays
// sequential: rows are small, so the fan-out pays off earlier than
// model mirroring's threshold.
const batchParallelBytes = 32 << 10

// Batch samples a training batch, decrypting rows from PM into enclave
// memory (Fig. 5 steps 5-6; Algorithm 2 decrypt_pm_data).
//
// All row indices are drawn from rng on the calling goroutine first,
// so the sampled batch is identical to the sequential path no matter
// how the work is then distributed; the per-row load → decrypt →
// decode (fetchRow) fans out across a bounded worker pool, each worker
// staging through its own PM read buffer and row buffer, writing
// disjoint row slices of x and y.
func (d *DataMatrix) Batch(rng *rand.Rand, size int) (x, y []float32, err error) {
	if size <= 0 {
		return nil, nil, fmt.Errorf("%w: batch size %d", mnist.ErrBadBatch, size)
	}
	imgLen := mnist.Rows * mnist.Cols
	x = make([]float32, size*imgLen)
	y = make([]float32, size*mnist.Classes)
	idxs := make([]int, size)
	for b := range idxs {
		idxs[b] = rng.Intn(d.n)
	}

	// fetch runs batch positions from next through buffers it owns,
	// until they run out; a failing worker exhausts next to stop the
	// others.
	var (
		next     atomic.Int64
		errMu    sync.Mutex
		firstErr error
	)
	fetch := func() {
		stored := make([]byte, d.storedRow)
		rowBuf := make([]float32, d.plainRow/4)
		for {
			b := int(next.Add(1)) - 1
			if b >= size {
				return
			}
			if err := d.fetchRow(idxs[b], stored, rowBuf); err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
				next.Store(int64(size))
				return
			}
			copy(x[b*imgLen:(b+1)*imgLen], rowBuf[:imgLen])
			copy(y[b*mnist.Classes:(b+1)*mnist.Classes], rowBuf[imgLen:])
		}
	}

	workers := mirrorWorkersAt(size, size*d.storedRow, batchParallelBytes)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fetch()
		}()
	}
	fetch()
	wg.Wait()
	if firstErr != nil {
		return nil, nil, firstErr
	}
	mBatchReads.Add(float64(size))
	return x, y, nil
}
