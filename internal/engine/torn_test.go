//go:build !race

package engine

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// TestOpenTornFrame opens a frame while another goroutine flips its
// ciphertext bits and flips them back, as a host writing PM during a
// restore would. An open that loads a ciphertext byte twice — once
// into the tag, once to decrypt — can authenticate one value and
// decrypt another; a single-fetch open cannot. The only legal outcomes
// are ErrAuth and the original plaintext. The flips are racy by
// design, so the test is left out of -race builds; on one core the
// two goroutines never overlap and every open is clean.
func TestOpenTornFrame(t *testing.T) {
	e := newTestEngine(t)
	plain := bytes.Repeat([]byte("torn frame stress "), 64<<10/18)
	frame, err := e.Seal(plain)
	if err != nil {
		t.Fatal(err)
	}
	words := unsafe.Slice((*uint32)(unsafe.Pointer(&frame[IVSize])), len(plain)/4)
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint32(0); !stop.Load(); i++ {
			w := &words[(i*2654435761)%uint32(len(words))]
			v := atomic.LoadUint32(w)
			atomic.StoreUint32(w, v^1<<(i%32))
			for j := 0; j < 8; j++ {
				runtime.Gosched()
			}
			atomic.StoreUint32(w, v)
		}
	}()
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	dst := make([]byte, len(plain))
	var opened, refused int
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
		switch err := e.OpenAAD(dst, frame, nil); {
		case errors.Is(err, ErrAuth):
			refused++
		case err != nil:
			t.Fatal(err)
		case !bytes.Equal(dst, plain):
			t.Fatalf("open returned no error but plaintext other than the sealed one (after %d clean, %d refused opens)", opened, refused)
		default:
			opened++
		}
	}
	t.Logf("%s: %d clean opens, %d refused", GCMPath(), opened, refused)
}
