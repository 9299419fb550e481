package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"plinius/internal/core"
	"plinius/internal/enclave"
)

// newFleetHosts builds n serving hosts with the given usable EPC,
// sharing the framework host's cost profile.
func newFleetHosts(f *core.Framework, n, epcBytes int) []*enclave.Host {
	hosts := make([]*enclave.Host, n)
	for i := range hosts {
		hosts[i] = enclave.NewHost(f.Enclave.Profile(), enclave.WithHostEPC(epcBytes))
	}
	return hosts
}

// TestFleetServingMatchesSequential: serving through the multi-host
// fabric yields predictions identical to the sequential enclave model,
// across Refresh and RotateKey.
func TestFleetServingMatchesSequential(t *testing.T) {
	f, test := newTrainedFramework(t, 8)
	hosts := newFleetHosts(f, 3, 32<<20)
	s, err := New(context.Background(), f, Options{
		Fleet:           hosts,
		MaxBatch:        8,
		MaxQueueLatency: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New server: %v", err)
	}
	defer s.Close()
	if st := s.Stats(); st.FleetHosts != 3 || st.FleetGroups < 1 {
		t.Fatalf("Stats fleet view = %d hosts / %d groups, want 3 / >= 1", st.FleetHosts, st.FleetGroups)
	}
	if s.Workers() < 1 {
		t.Fatalf("Workers = %d", s.Workers())
	}

	got := make([]int, test.N)
	var wg sync.WaitGroup
	errCh := make(chan error, test.N)
	for i := 0; i < test.N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pred, err := s.Classify(context.Background(), test.Image(i))
			if err != nil {
				errCh <- err
				return
			}
			got[i] = pred.Class
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("Classify: %v", err)
	}
	for i := 0; i < test.N; i++ {
		want, err := f.Classify(test.Image(i))
		if err != nil {
			t.Fatalf("sequential classify %d: %v", i, err)
		}
		if got[i] != want {
			t.Fatalf("fleet class[%d] = %d, want %d", i, got[i], want)
		}
	}

	// Refresh and rotation flip the whole fleet; serving continues.
	if err := f.Train(context.Background(), core.StopAt(4)); err != nil {
		t.Fatalf("Train: %v", err)
	}
	if _, err := f.Publish(); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	v1 := s.Version()
	iter, err := s.Refresh(context.Background())
	if err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	if iter != f.Iteration() || s.Version() <= v1 {
		t.Fatalf("Refresh iter %d version %d, want iter %d version > %d", iter, s.Version(), f.Iteration(), v1)
	}
	if _, err := s.RotateKey(context.Background()); err != nil {
		t.Fatalf("RotateKey: %v", err)
	}
	pred, err := s.Classify(context.Background(), test.Image(0))
	if err != nil {
		t.Fatalf("Classify after rotate: %v", err)
	}
	want, err := f.Classify(test.Image(0))
	if err != nil {
		t.Fatalf("sequential classify after rotate: %v", err)
	}
	if pred.Class != want {
		t.Fatalf("after rotate class %d, want %d", pred.Class, want)
	}

	st := s.Stats()
	if st.FleetHosts != 3 || st.FleetGroups < 1 {
		t.Fatalf("Stats fleet view = %d hosts / %d groups", st.FleetHosts, st.FleetGroups)
	}
}

// TestFleetServingDropsNoRequestsDuringControl hammers the server with
// concurrent requests while Refresh and RotateKey flip the fleet
// mid-traffic: every request must succeed. Run under -race this is the
// acceptance check that fleet-wide control operations drop zero
// requests.
func TestFleetServingDropsNoRequestsDuringControl(t *testing.T) {
	f, test := newTrainedFramework(t, 4)
	hosts := newFleetHosts(f, 3, 32<<20)
	s, err := New(context.Background(), f, Options{
		Fleet:           hosts,
		MaxBatch:        4,
		MaxQueueLatency: time.Millisecond,
		QueueDepth:      4096,
	})
	if err != nil {
		t.Fatalf("New server: %v", err)
	}
	defer s.Close()

	const clients = 4
	const perClient = 8
	var wg sync.WaitGroup
	errCh := make(chan error, clients*perClient+2)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if _, err := s.Classify(context.Background(), test.Image((c*perClient+i)%test.N)); err != nil {
					errCh <- err
					return
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := f.Publish(); err != nil {
			errCh <- err
			return
		}
		if _, err := s.Refresh(context.Background()); err != nil {
			errCh <- err
			return
		}
		if _, err := s.RotateKey(context.Background()); err != nil {
			errCh <- err
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("request dropped during fleet control ops: %v", err)
	}
	if st := s.Stats(); st.Requests != clients*perClient {
		t.Fatalf("Requests = %d, want %d (zero drops)", st.Requests, clients*perClient)
	}
}
