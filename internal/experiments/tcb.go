package experiments

import (
	"bufio"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// TCB accounting (paper §IV/§V): Plinius' manual trusted/untrusted
// partitioning keeps the trusted computing base small — the paper's C
// implementation is 28,450 LOC total with 15,900 trusted (a ~44%
// reduction versus putting everything in the enclave). This experiment
// computes the same split for the Go reproduction by classifying
// packages.

// trustedPackages are the components that live inside the enclave:
// lib-sgx-romulus, lib-sgx-darknet, the mirroring module, the
// encryption engine and the trusted parts of the framework.
var trustedPackages = map[string]bool{
	"romulus": true,
	"darknet": true,
	"mirror":  true,
	"engine":  true,
	"enclave": true,
	"core":    true,
	// The worker pool runs the kernels' and the mirror's loop bodies in
	// the enclave (the PM device's copy shares it from outside).
	"par": true,
}

// untrustedPackages run in the untrusted runtime: device emulation,
// dataset handling, the spot driver and the experiment harness.
var untrustedPackages = map[string]bool{
	"pm":          true,
	"storage":     true,
	"mnist":       true,
	"spot":        true,
	"simclock":    true,
	"experiments": true,
	// The serving front end (request queueing and micro-batch
	// marshalling) is untrusted-runtime plumbing; classification
	// itself runs in the serving enclaves (core.ShardGroup).
	"serve": true,
	// The fleet fabric (placement planning, routing, channel
	// bookkeeping) is untrusted orchestration: activations cross hosts
	// only sealed, and channel keys are provisioned by the attestation
	// flow inside the shard enclaves (core).
	"fleet": true,
	// Telemetry (metric registry, tracing, exposition) observes the
	// enclave pipeline from outside; nothing secret crosses into it.
	"obs": true,
	// Fault injection scripts host kills and channel faults from the
	// untrusted side — exactly where a real adversary or failure
	// lives; enclaves only ever see the resulting refused crossings.
	"chaos": true,
}

// TCBResult is the LOC split.
type TCBResult struct {
	TrustedLOC   int
	UntrustedLOC int
	PerPackage   map[string]int
}

// TotalLOC returns the combined count.
func (r TCBResult) TotalLOC() int { return r.TrustedLOC + r.UntrustedLOC }

// TrustedFraction returns trusted/total.
func (r TCBResult) TrustedFraction() float64 {
	if r.TotalLOC() == 0 {
		return 0
	}
	return float64(r.TrustedLOC) / float64(r.TotalLOC())
}

// RunTCB counts non-blank, non-test Go lines under root/internal and
// classifies them into the trusted and untrusted runtime.
func RunTCB(root string) (TCBResult, error) {
	res := TCBResult{PerPackage: make(map[string]int)}
	base := filepath.Join(root, "internal")
	err := filepath.WalkDir(base, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		pkg := filepath.Base(filepath.Dir(path))
		loc, err := countLOC(path)
		if err != nil {
			return err
		}
		res.PerPackage[pkg] += loc
		switch {
		case trustedPackages[pkg]:
			res.TrustedLOC += loc
		case untrustedPackages[pkg]:
			res.UntrustedLOC += loc
		default:
			return fmt.Errorf("tcb: package %q not classified", pkg)
		}
		return nil
	})
	if err != nil {
		return TCBResult{}, fmt.Errorf("tcb walk: %w", err)
	}
	return res, nil
}

func countLOC(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := 0
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) != "" {
			n++
		}
	}
	return n, sc.Err()
}

// Print renders the split.
func (r TCBResult) Print(w io.Writer) {
	fmt.Fprintln(w, "§V TCB accounting (non-blank Go LOC, tests excluded)")
	tw := newTable(w)
	fmt.Fprintln(tw, "runtime\tLOC\tshare")
	fmt.Fprintf(tw, "trusted (enclave)\t%d\t%.1f%%\n", r.TrustedLOC, 100*r.TrustedFraction())
	fmt.Fprintf(tw, "untrusted\t%d\t%.1f%%\n", r.UntrustedLOC, 100*(1-r.TrustedFraction()))
	fmt.Fprintf(tw, "total\t%d\t\n", r.TotalLOC())
	tw.Flush()
}
