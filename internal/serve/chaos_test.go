package serve

import (
	"context"
	"testing"
	"time"
)

// TestFleetServingSurvivesHostKill: killing one fleet host under a
// serving load drops zero requests — the router recovers the failure
// (these hosts comfortably hold the model, so survivors replan
// resident) — and the server's stats surface the outage.
func TestFleetServingSurvivesHostKill(t *testing.T) {
	f, test := newTrainedFramework(t, 8)
	hosts := newFleetHosts(f, 3, 32<<20)
	s, err := New(context.Background(), f, Options{
		Fleet:           hosts,
		MaxBatch:        4,
		MaxQueueLatency: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New server: %v", err)
	}
	defer s.Close()

	if st := s.Stats(); st.FleetHostsDown != 0 || st.FleetDegraded {
		t.Fatalf("fresh fleet server reports hosts_down=%d degraded=%v",
			st.FleetHostsDown, st.FleetDegraded)
	}

	// Warm up, then kill a host and keep classifying through the
	// outage. The fleet must re-route and retry: no request fails.
	for i := 0; i < 4; i++ {
		if _, err := s.Classify(context.Background(), test.Image(i%test.N)); err != nil {
			t.Fatalf("warm-up classify %d: %v", i, err)
		}
	}
	hosts[0].Kill()
	for i := 0; i < 8; i++ {
		if _, err := s.Classify(context.Background(), test.Image(i%test.N)); err != nil {
			t.Fatalf("classify %d across host kill: %v", i, err)
		}
	}

	st := s.Stats()
	if st.FleetHostsDown != 1 {
		t.Fatalf("Stats.FleetHostsDown = %d, want 1", st.FleetHostsDown)
	}
	if st.FleetReplans < 1 {
		t.Fatalf("Stats.FleetReplans = %d, want >= 1", st.FleetReplans)
	}
	if st.FleetEvictedGroups < 1 {
		t.Fatalf("Stats.FleetEvictedGroups = %d, want >= 1", st.FleetEvictedGroups)
	}

	// The host comes back; FleetRejoin promotes and the outage clears.
	hosts[0].Rejoin()
	if err := s.FleetRejoin(); err != nil {
		t.Fatalf("FleetRejoin: %v", err)
	}
	if st := s.Stats(); st.FleetHostsDown != 0 || st.FleetDegraded {
		t.Fatalf("after rejoin: hosts_down=%d degraded=%v, want 0/false",
			st.FleetHostsDown, st.FleetDegraded)
	}
	if _, err := s.Classify(context.Background(), test.Image(0)); err != nil {
		t.Fatalf("classify after rejoin: %v", err)
	}
}
