// Package storage emulates secondary-storage devices (SSD behind ext4,
// PM behind ext4+DAX, and a DRAM-backed tmpfs ramdisk) for the Plinius
// reproduction.
//
// Plinius compares its PM mirroring mechanism against checkpointing on an
// SSD, and the paper characterises the three device classes with FIO
// (Fig. 2). This package provides an in-memory filesystem with a latency
// and bandwidth cost model per device class, charged to a simclock.Clock,
// plus the FIO-style workload generator used to regenerate Fig. 2.
package storage

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"plinius/internal/obs"
	"plinius/internal/simclock"
)

// Process-wide secondary-storage counters, labeled by device profile
// name so the SSD-checkpoint baseline and the ramdisk are separable.
func deviceCounters(prof string) (reads, writes, fsyncs, bytesRead, bytesWritten *obs.Counter) {
	l := obs.Label{Key: "device", Value: prof}
	reg := obs.Default()
	return reg.Counter("storage_reads_total", "Storage read ops, by device profile.", l),
		reg.Counter("storage_writes_total", "Storage write ops, by device profile.", l),
		reg.Counter("storage_fsyncs_total", "Storage fsyncs, by device profile.", l),
		reg.Counter("storage_bytes_read_total", "Bytes read from storage, by device profile.", l),
		reg.Counter("storage_bytes_written_total", "Bytes written to storage, by device profile.", l)
}

// Profile models a storage device class. Latencies are per operation;
// bandwidths are sustained bytes/second shared across all in-flight
// operations.
type Profile struct {
	Name           string
	ReadLatency    time.Duration // per-op read setup (syscall + device)
	WriteLatency   time.Duration // per-op write setup
	FsyncLatency   time.Duration // cost of fsync
	ReadBandwidth  float64       // bytes/sec
	WriteBandwidth float64       // bytes/sec
	MaxParallel    int           // internal queue parallelism
	SeqBoost       float64       // latency divisor for sequential access
}

// SSDProfile returns a SATA/NVMe-class SSD behind ext4 with synchronous
// I/O, calibrated to the paper's Fig. 2 (write workloads fsync each 4 KB
// block, collapsing throughput to the 0.01-0.1 GB/s decade).
func SSDProfile() Profile {
	return Profile{
		Name:           "ssd-ext4",
		ReadLatency:    120 * time.Microsecond,
		WriteLatency:   40 * time.Microsecond,
		FsyncLatency:   150 * time.Microsecond,
		ReadBandwidth:  0.45e9,
		WriteBandwidth: 1.2e9,
		MaxParallel:    8,
		SeqBoost:       2.0,
	}
}

// SSDSlowProfile returns the emlSGX-PM server's SSD (the two evaluation
// machines carry different drives; this one is SATA-class with a slower
// fsync path).
func SSDSlowProfile() Profile {
	return Profile{
		Name:           "ssd-ext4-sata",
		ReadLatency:    150 * time.Microsecond,
		WriteLatency:   40 * time.Microsecond,
		FsyncLatency:   800 * time.Microsecond,
		ReadBandwidth:  0.75e9,
		WriteBandwidth: 1.2e9,
		MaxParallel:    8,
		SeqBoost:       2.0,
	}
}

// PMDaxProfile returns Optane PM behind ext4+DAX: the page cache is out
// of the I/O path and fsync is nearly free.
func PMDaxProfile() Profile {
	return Profile{
		Name:           "pm-ext4-dax",
		ReadLatency:    300 * time.Nanosecond,
		WriteLatency:   500 * time.Nanosecond,
		FsyncLatency:   1 * time.Microsecond,
		ReadBandwidth:  8.0e9,
		WriteBandwidth: 2.5e9,
		MaxParallel:    16,
		SeqBoost:       1.3,
	}
}

// RamdiskProfile returns a tmpfs partition over DRAM.
func RamdiskProfile() Profile {
	return Profile{
		Name:           "ramdisk-tmpfs",
		ReadLatency:    200 * time.Nanosecond,
		WriteLatency:   300 * time.Nanosecond,
		FsyncLatency:   200 * time.Nanosecond,
		ReadBandwidth:  20.0e9,
		WriteBandwidth: 10.0e9,
		MaxParallel:    16,
		SeqBoost:       1.2,
	}
}

// Errors returned by the device.
var (
	ErrNotExist = errors.New("storage: file does not exist")
	ErrClosed   = errors.New("storage: file is closed")
)

// Device is an emulated storage device holding an in-memory filesystem.
// It is safe for concurrent use.
type Device struct {
	mu    sync.Mutex
	prof  Profile
	clock *simclock.Clock
	files map[string]*fileData
	stats Stats

	mReads        *obs.Counter
	mWrites       *obs.Counter
	mFsyncs       *obs.Counter
	mBytesRead    *obs.Counter
	mBytesWritten *obs.Counter
}

// Stats counts device operations.
type Stats struct {
	Reads        uint64
	Writes       uint64
	Fsyncs       uint64
	BytesRead    uint64
	BytesWritten uint64
}

type fileData struct {
	data []byte
}

// NewDevice creates a device with the given profile.
func NewDevice(prof Profile) *Device {
	d := &Device{
		prof:  prof,
		clock: simclock.New(),
		files: make(map[string]*fileData),
	}
	d.mReads, d.mWrites, d.mFsyncs, d.mBytesRead, d.mBytesWritten = deviceCounters(d.prof.Name)
	return d
}

// Clock returns the clock charged by this device.
func (d *Device) Clock() *simclock.Clock { return d.clock }

// Create creates (or truncates) a file and returns a handle.
func (d *Device) Create(name string) (*File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	fd := &fileData{}
	d.files[name] = fd
	return &File{dev: d, fd: fd}, nil
}

// Open opens an existing file for reading and writing.
func (d *Device) Open(name string) (*File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	fd, ok := d.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotExist, name)
	}
	return &File{dev: d, fd: fd}, nil
}

// chargeRead advances the clock by the modeled cost of reading n bytes.
func (d *Device) chargeRead(n int, sequential bool) {
	lat := d.prof.ReadLatency
	if sequential && d.prof.SeqBoost > 1 {
		lat = time.Duration(float64(lat) / d.prof.SeqBoost)
	}
	transfer := time.Duration(float64(n) / d.prof.ReadBandwidth * float64(time.Second))
	d.clock.Advance(lat + transfer)
}

// chargeWrite advances the clock by the modeled cost of writing n bytes.
func (d *Device) chargeWrite(n int, sequential bool) {
	lat := d.prof.WriteLatency
	if sequential && d.prof.SeqBoost > 1 {
		lat = time.Duration(float64(lat) / d.prof.SeqBoost)
	}
	transfer := time.Duration(float64(n) / d.prof.WriteBandwidth * float64(time.Second))
	d.clock.Advance(lat + transfer)
}

// File is a handle into the device's in-memory filesystem with
// POSIX-style sequential read/write semantics.
type File struct {
	dev    *Device
	fd     *fileData
	off    int
	closed bool
}

var (
	_ io.ReadWriteSeeker = (*File)(nil)
	_ io.Closer          = (*File)(nil)
)

// Write appends/overwrites at the current offset, charging the modeled
// write cost. Writes are sequential when they continue from the previous
// offset.
func (f *File) Write(p []byte) (int, error) {
	if f.closed {
		return 0, ErrClosed
	}
	f.dev.mu.Lock()
	end := f.off + len(p)
	if end > len(f.fd.data) {
		if end > cap(f.fd.data) {
			// Amortised growth: large checkpoints append thousands of
			// buffers, so double capacity instead of exact-fit copies.
			grown := make([]byte, end, 2*end)
			copy(grown, f.fd.data)
			f.fd.data = grown
		} else {
			f.fd.data = f.fd.data[:end]
		}
	}
	copy(f.fd.data[f.off:], p)
	f.dev.stats.Writes++
	f.dev.stats.BytesWritten += uint64(len(p))
	f.dev.mu.Unlock()
	f.dev.mWrites.Inc()
	f.dev.mBytesWritten.Add(float64(len(p)))
	f.dev.chargeWrite(len(p), true)
	f.off = end
	return len(p), nil
}

// Read reads from the current offset, charging the modeled read cost.
func (f *File) Read(p []byte) (int, error) {
	if f.closed {
		return 0, ErrClosed
	}
	f.dev.mu.Lock()
	if f.off >= len(f.fd.data) {
		f.dev.mu.Unlock()
		return 0, io.EOF
	}
	n := copy(p, f.fd.data[f.off:])
	f.dev.stats.Reads++
	f.dev.stats.BytesRead += uint64(n)
	f.dev.mu.Unlock()
	f.dev.mReads.Inc()
	f.dev.mBytesRead.Add(float64(n))
	f.dev.chargeRead(n, true)
	f.off += n
	return n, nil
}

// Seek implements io.Seeker.
func (f *File) Seek(offset int64, whence int) (int64, error) {
	if f.closed {
		return 0, ErrClosed
	}
	f.dev.mu.Lock()
	size := len(f.fd.data)
	f.dev.mu.Unlock()
	var abs int64
	switch whence {
	case io.SeekStart:
		abs = offset
	case io.SeekCurrent:
		abs = int64(f.off) + offset
	case io.SeekEnd:
		abs = int64(size) + offset
	default:
		return 0, fmt.Errorf("storage: invalid whence %d", whence)
	}
	if abs < 0 {
		return 0, errors.New("storage: negative seek position")
	}
	f.off = int(abs)
	return abs, nil
}

// Sync models fsync: it charges the device's fsync latency. Data in this
// emulation is durable at write time; Sync exists so checkpointing code
// pays the same cost structure as the paper's fwrite+fsync baseline.
func (f *File) Sync() error {
	if f.closed {
		return ErrClosed
	}
	f.dev.mu.Lock()
	f.dev.stats.Fsyncs++
	f.dev.mu.Unlock()
	f.dev.mFsyncs.Inc()
	f.dev.clock.Advance(f.dev.prof.FsyncLatency)
	return nil
}

// Close closes the handle. Further operations return ErrClosed.
func (f *File) Close() error {
	if f.closed {
		return ErrClosed
	}
	f.closed = true
	return nil
}
