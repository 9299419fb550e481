//go:build race

package darknet

// raceEnabled reports a -race build. Its sync.Pool drops a random
// quarter of the items put back, so pooled kernel scratch is made
// again and allocation counts are not exact.
const raceEnabled = true
