package par

import "time"

// SetJoinProbe makes every For that hands ranges to workers report,
// when it returns, how late its first worker started on it (0 if none
// did), how many ranges workers ran, and of how many. Nil removes the
// probe.
func SetJoinProbe(p func(late time.Duration, helped, ranges int)) {
	if p == nil {
		joinProbe.Store(nil)
		return
	}
	joinProbe.Store(&p)
}
