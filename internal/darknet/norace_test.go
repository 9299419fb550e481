//go:build !race

package darknet

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
