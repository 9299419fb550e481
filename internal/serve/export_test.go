package serve

import "plinius/internal/obs"

// Tracer returns the server's request tracer.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// FleetRejoin re-admits fleet hosts that have come back and promotes
// the fleet to the best placement the live hosts hold (fleet.Rejoin).
// No-op when not serving through a fleet.
func (s *Server) FleetRejoin() error {
	if fl := s.servingFleet(); fl != nil {
		return fl.Rejoin()
	}
	return nil
}
