package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
	"unicode"

	"plinius/internal/core"
)

// TestPaperLedger runs the ledger, logs it, and asserts every row's
// band: one subtest per figure, holding one subtest per row.
func TestPaperLedger(t *testing.T) {
	rows, err := Ledger("../..")
	if err != nil {
		t.Fatalf("Ledger: %v", err)
	}
	var buf strings.Builder
	werr := WriteLedger(&buf, rows)
	t.Log("\n" + buf.String())
	var figures []string
	byFigure := make(map[string][]Row)
	for _, r := range rows {
		if byFigure[r.Figure] == nil {
			figures = append(figures, r.Figure)
		}
		byFigure[r.Figure] = append(byFigure[r.Figure], r)
	}
	for _, fig := range figures {
		t.Run(subtestName(fig, ""), func(t *testing.T) {
			for _, r := range byFigure[fig] {
				t.Run(subtestName(r.Quantity, "_"), func(t *testing.T) {
					if !r.inBand() {
						t.Errorf("%s = %v %s (%s), outside %s", r.Quantity, r.Value, r.Unit, r.Clock, r.band())
					}
				})
			}
		})
	}
	if (werr != nil) != t.Failed() {
		t.Errorf("WriteLedger returned %v; want an error exactly when a row is out of band", werr)
	}
}

// subtestName joins the letter-and-digit runs of s with sep:
// "Fig. 7" -> "Fig7", and a quantity -> its words joined by "_".
func subtestName(s, sep string) string {
	return strings.Join(strings.FieldsFunc(s, func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	}), sep)
}

func TestTable1FromFig7(t *testing.T) {
	pts := []fig7Point{
		{
			beyondEPC:     false,
			mirrorSave:    core.StepTiming{Encrypt: 60 * time.Millisecond, Write: 40 * time.Millisecond},
			mirrorRestore: core.StepTiming{Read: 75 * time.Millisecond, Decrypt: 25 * time.Millisecond},
			ssdSave:       core.StepTiming{Encrypt: 60 * time.Millisecond, Write: 200 * time.Millisecond},
			ssdRestore:    core.StepTiming{Read: 150 * time.Millisecond, Decrypt: 25 * time.Millisecond},
		},
		{
			beyondEPC:     true,
			mirrorSave:    core.StepTiming{Encrypt: 90 * time.Millisecond, Write: 10 * time.Millisecond},
			mirrorRestore: core.StepTiming{Read: 90 * time.Millisecond, Decrypt: 10 * time.Millisecond},
			ssdSave:       core.StepTiming{Encrypt: 90 * time.Millisecond, Write: 80 * time.Millisecond},
			ssdRestore:    core.StepTiming{Read: 180 * time.Millisecond, Decrypt: 10 * time.Millisecond},
		},
	}
	a := computeTable1a(pts)
	if a.encryptBelow != 60 || a.writeBelow != 40 {
		t.Fatalf("below save shares: %.1f/%.1f", a.encryptBelow, a.writeBelow)
	}
	if a.encryptBeyond != 90 || a.writeBeyond != 10 {
		t.Fatalf("beyond save shares: %.1f/%.1f", a.encryptBeyond, a.writeBeyond)
	}
	if a.readBelow != 75 || a.decryptBelow != 25 {
		t.Fatalf("below restore shares: %.1f/%.1f", a.readBelow, a.decryptBelow)
	}
	b := computeTable1b(pts)
	if b.writeBelow != 5 { // 200/40
		t.Fatalf("write speedup below = %.2f, want 5", b.writeBelow)
	}
	if b.readBelow != 2 { // 150/75
		t.Fatalf("read speedup below = %.2f, want 2", b.readBelow)
	}
	if b.saveTotalBelow != 2.6 { // 260/100
		t.Fatalf("save total speedup = %.2f, want 2.6", b.saveTotalBelow)
	}
}

// TestTCBAccounting is the reverse of the TCB walk's
// unclassified-package check: every classified name must still be a
// package under internal/.
func TestTCBAccounting(t *testing.T) {
	for _, table := range []map[string]bool{trustedPackages, untrustedPackages} {
		for pkg := range table {
			if fi, err := os.Stat(filepath.Join("../..", "internal", pkg)); err != nil || !fi.IsDir() {
				t.Fatalf("TCB table names %q, which is no directory under internal/", pkg)
			}
		}
	}
}
