package experiments

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// TCB accounting (paper §IV/§V): Plinius' manual trusted/untrusted
// partitioning keeps the trusted computing base small — the paper's C
// implementation is 28,450 LOC total with 15,900 trusted (a ~44%
// reduction versus putting everything in the enclave). The ledger
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
	// The CPUID probes pick the kernels and the AES-GCM path the
	// enclave runs.
	"cpuid": true,
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

// tcb counts non-blank, non-test Go lines under root/internal and
// splits them between the trusted and the untrusted runtime.
func tcb(root string) ([]Row, error) {
	var trusted, untrusted int
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d fs.DirEntry, err error) error {
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
		switch {
		case trustedPackages[pkg]:
			trusted += loc
		case untrustedPackages[pkg]:
			untrusted += loc
		default:
			return fmt.Errorf("tcb: package %q not classified", pkg)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("tcb walk: %w", err)
	}
	return []Row{
		{Figure: "TCB", Quantity: "trusted share of non-blank, non-test Go lines", Paper: "extension", Value: float64(trusted) / float64(trusted+untrusted), Unit: "fraction", Clock: count, Lo: 0.3, Hi: 0.85},
	}, nil
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
