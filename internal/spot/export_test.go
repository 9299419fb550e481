package spot

import (
	"bufio"
	"fmt"
	"io"
	"time"
)

// WriteCSV serialises a trace in the ParseCSV format.
func WriteCSV(w io.Writer, t Trace) error {
	bw := bufio.NewWriter(w)
	for i, p := range t.Prices {
		if _, err := fmt.Fprintf(bw, "%d,%.6f\n", i*int(Interval.Minutes()), p); err != nil {
			return fmt.Errorf("spot: write trace: %w", err)
		}
	}
	return bw.Flush()
}

// Interval is the spacing of trace points (the paper's traces carry
// prices at 5-minute intervals).
const Interval = 5 * time.Minute
