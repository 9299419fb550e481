package storage

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestCreateWriteReadRoundTrip(t *testing.T) {
	d := NewDevice(SSDProfile())
	f, err := d.Create("ckpt.bin")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	want := []byte("model weights")
	if _, err := f.Write(want); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	g, err := d.Open("ckpt.bin")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	got, err := io.ReadAll(g)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read back %q, want %q", got, want)
	}
}

func TestOpenMissingFile(t *testing.T) {
	d := NewDevice(SSDProfile())
	if _, err := d.Open("nope"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Open missing = %v, want ErrNotExist", err)
	}
	if err := d.Remove("nope"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Remove missing = %v, want ErrNotExist", err)
	}
}

func TestRemoveAndExists(t *testing.T) {
	d := NewDevice(RamdiskProfile())
	if _, err := d.Create("a"); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if !d.Exists("a") {
		t.Fatal("Exists = false after Create")
	}
	if err := d.Remove("a"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if d.Exists("a") {
		t.Fatal("Exists = true after Remove")
	}
}

func TestSeekAndOverwrite(t *testing.T) {
	d := NewDevice(PMDaxProfile())
	f, err := d.Create("f")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := f.Write([]byte("aaaaaa")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if _, err := f.Seek(2, io.SeekStart); err != nil {
		t.Fatalf("Seek: %v", err)
	}
	if _, err := f.Write([]byte("bb")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatalf("Seek: %v", err)
	}
	got, err := io.ReadAll(f)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if string(got) != "aabbaa" {
		t.Fatalf("content = %q, want aabbaa", got)
	}
	if _, err := f.Seek(-1, io.SeekStart); err == nil {
		t.Fatal("negative seek succeeded")
	}
}

func TestClosedFileOperationsFail(t *testing.T) {
	d := NewDevice(SSDProfile())
	f, err := d.Create("f")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Write after close = %v, want ErrClosed", err)
	}
	if _, err := f.Read(make([]byte, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Read after close = %v, want ErrClosed", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync after close = %v, want ErrClosed", err)
	}
	if err := f.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double Close = %v, want ErrClosed", err)
	}
}

func TestWriteChargesClock(t *testing.T) {
	d := NewDevice(SSDProfile())
	f, err := d.Create("f")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	before := d.Clock().Modeled()
	if _, err := f.Write(make([]byte, 1<<20)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	after := d.Clock().Modeled()
	if after <= before {
		t.Fatal("write+fsync did not advance the clock")
	}
	s := d.Stats()
	if s.Writes != 1 || s.Fsyncs != 1 || s.BytesWritten != 1<<20 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestFIOWriteSlowerThanReadOnSSD(t *testing.T) {
	read, err := RunFIO(SSDProfile(), FIOConfig{Pattern: RandomRead, Threads: 1, BlockSize: 4096, FileSize: 4 << 20})
	if err != nil {
		t.Fatalf("RunFIO read: %v", err)
	}
	write, err := RunFIO(SSDProfile(), FIOConfig{Pattern: RandomWrite, Threads: 1, BlockSize: 4096, FileSize: 4 << 20})
	if err != nil {
		t.Fatalf("RunFIO write: %v", err)
	}
	if write.ThroughputGBps >= read.ThroughputGBps {
		t.Fatalf("fsync-per-block writes (%f GB/s) should be slower than reads (%f GB/s)",
			write.ThroughputGBps, read.ThroughputGBps)
	}
}

func TestFIODeviceOrdering(t *testing.T) {
	// The paper's Fig. 2 shape: ramdisk >= PM(DAX) >> SSD for every
	// pattern.
	for _, pat := range []FIOPattern{RandomRead, SequentialRead, RandomWrite, SequentialWrite} {
		t.Run(pat.String(), func(t *testing.T) {
			cfg := FIOConfig{Pattern: pat, Threads: 4, BlockSize: 4096, FileSize: 4 << 20}
			ssd, err := RunFIO(SSDProfile(), cfg)
			if err != nil {
				t.Fatalf("ssd: %v", err)
			}
			pmdax, err := RunFIO(PMDaxProfile(), cfg)
			if err != nil {
				t.Fatalf("pm: %v", err)
			}
			ram, err := RunFIO(RamdiskProfile(), cfg)
			if err != nil {
				t.Fatalf("ramdisk: %v", err)
			}
			if !(ram.ThroughputGBps >= pmdax.ThroughputGBps && pmdax.ThroughputGBps > ssd.ThroughputGBps) {
				t.Fatalf("ordering violated: ram=%.3f pm=%.3f ssd=%.3f",
					ram.ThroughputGBps, pmdax.ThroughputGBps, ssd.ThroughputGBps)
			}
			// PM should beat SSD by at least an order of magnitude on
			// writes (fsync per block on SSD).
			if pat.IsWrite() && pmdax.ThroughputGBps < 10*ssd.ThroughputGBps {
				t.Fatalf("PM writes only %.1fx faster than SSD, want >=10x",
					pmdax.ThroughputGBps/ssd.ThroughputGBps)
			}
		})
	}
}

func TestFIOThreadScalingSaturates(t *testing.T) {
	cfg := func(threads int) FIOConfig {
		return FIOConfig{Pattern: RandomRead, Threads: threads, BlockSize: 4096, FileSize: 4 << 20}
	}
	prof := SSDProfile()
	one, err := RunFIO(prof, cfg(1))
	if err != nil {
		t.Fatalf("1 thread: %v", err)
	}
	eight, err := RunFIO(prof, cfg(8))
	if err != nil {
		t.Fatalf("8 threads: %v", err)
	}
	sixteen, err := RunFIO(prof, cfg(16))
	if err != nil {
		t.Fatalf("16 threads: %v", err)
	}
	if eight.ThroughputGBps <= one.ThroughputGBps {
		t.Fatal("8 threads not faster than 1")
	}
	// Beyond MaxParallel (8) extra threads add nothing.
	if sixteen.ThroughputGBps > eight.ThroughputGBps*1.01 {
		t.Fatalf("16 threads (%.3f) exceeded 8-thread saturation (%.3f)",
			sixteen.ThroughputGBps, eight.ThroughputGBps)
	}
}

func TestFIOInvalidConfig(t *testing.T) {
	if _, err := RunFIO(SSDProfile(), FIOConfig{Pattern: RandomRead, Threads: 0, BlockSize: 4096, FileSize: 1 << 20}); err == nil {
		t.Fatal("zero threads accepted")
	}
	if _, err := RunFIO(SSDProfile(), FIOConfig{Pattern: RandomRead, Threads: 1, BlockSize: 0, FileSize: 1 << 20}); err == nil {
		t.Fatal("zero block size accepted")
	}
	if _, err := RunFIO(SSDProfile(), FIOConfig{Pattern: RandomRead, Threads: 1, BlockSize: 4096, FileSize: 1024}); err == nil {
		t.Fatal("file smaller than block accepted")
	}
}
