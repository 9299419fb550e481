// Command plinius-bench prints the paper ledger: every number of the
// Plinius paper's evaluation (§VI) and of the repository's extensions,
// measured once on the emulated substrates, beside the paper's value,
// the clock it was read on and the band it must fall in. It exits 1
// when a row falls outside its band.
//
// Usage:
//
//	plinius-bench [-root dir]
//
// Serving, checkpoint and kernel performance is measured by the
// repository benchmark (benchmark/, BENCHMARK.json), not here.
package main

import (
	"flag"
	"fmt"
	"os"

	"plinius/internal/experiments"
)

func main() {
	root := flag.String("root", ".", "repository root, whose internal/ tree the TCB row counts")
	flag.Parse()
	rows, err := experiments.Ledger(*root)
	if err == nil {
		err = experiments.WriteLedger(os.Stdout, rows)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "plinius-bench:", err)
		os.Exit(1)
	}
}
