// Package experiments is the paper ledger: it runs the experiments of
// the Plinius paper's evaluation (§VI: Fig. 2 and 6-10, Table I, secure
// inference) and the repository's extensions (TCB split, mirroring
// frequency, co-located enclaves) once each on the emulated substrates,
// and reports every number as one Row — the paper's value, the value
// measured here, the clock it was read on and the band it must fall
// in. TestPaperLedger asserts every band; cmd/plinius-bench prints the
// ledger and fails on a row outside its band.
//
// Absolute numbers come from the calibrated cost models; EXPERIMENTS.md
// records the ledger and how to read it.
package experiments

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"text/tabwriter"
)

// Clocks a row's value can be read on.
const (
	modeled     = "modeled"      // the cost models' virtual clocks only
	wallModeled = "wall+modeled" // wall clock of real work plus modeled time
	count       = "count"        // an exact count, or a value computed without a clock
)

var inf = math.Inf(1)

// Row is one number of the ledger.
type Row struct {
	// Figure names the paper's figure or table, or the extension.
	Figure   string
	Quantity string
	// Paper is the paper's value, "extension" for a number the paper
	// does not report, or "—" where the paper reports the number but
	// this repository does not record it.
	Paper string
	Value float64
	Unit  string
	// Clock is what Value was read on: "modeled", "wall+modeled" or
	// "count".
	Clock string
	// Value must lie in [Lo, Hi], or in (Lo, Hi) when Open is set. A row
	// with Lo = -Inf and Hi = +Inf has no band and is only reported.
	Lo, Hi float64
	Open   bool
}

func (r Row) banded() bool { return !math.IsInf(r.Lo, -1) || !math.IsInf(r.Hi, 1) }

func (r Row) inBand() bool {
	switch {
	case !r.banded():
		return true
	case r.Open:
		return r.Value > r.Lo && r.Value < r.Hi
	default:
		return r.Value >= r.Lo && r.Value <= r.Hi
	}
}

func (r Row) band() string {
	if !r.banded() {
		return "—"
	}
	if r.Open {
		return "(" + num(r.Lo) + ", " + num(r.Hi) + ")"
	}
	return "[" + num(r.Lo) + ", " + num(r.Hi) + "]"
}

// num renders integers exactly and other values to four significant
// digits.
func num(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "∞"
	case math.IsInf(v, -1):
		return "-∞"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}

// Ledger runs every experiment once and returns its rows in paper
// order. root is the repository root, whose internal/ tree the TCB row
// counts.
func Ledger(root string) ([]Row, error) {
	var rows []Row
	for _, run := range []func() ([]Row, error){
		fig2, fig6, fig7, fig8, fig9, fig10, inference,
		func() ([]Row, error) { return tcb(root) },
		freq, coloc,
	} {
		r, err := run()
		if err != nil {
			return nil, err
		}
		rows = append(rows, r...)
	}
	return rows, nil
}

// WriteLedger prints rows as a table, marking each row outside its
// band, and returns an error naming those rows.
func WriteLedger(w io.Writer, rows []Row) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "figure\tquantity\tpaper\trepo\tunit\tclock\tband\t")
	var out []string
	for _, r := range rows {
		mark := ""
		if !r.inBand() {
			mark = "OUT OF BAND"
			out = append(out, r.Figure+": "+r.Quantity)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
			r.Figure, r.Quantity, r.Paper, num(r.Value), r.Unit, r.Clock, r.band(), mark)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if len(out) > 0 {
		return fmt.Errorf("%d of %d rows out of band: %s", len(out), len(rows), strings.Join(out, "; "))
	}
	return nil
}
