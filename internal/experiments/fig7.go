package experiments

import (
	"fmt"
	"runtime"

	"plinius/internal/core"
	"plinius/internal/enclave"
)

// fig7Point is one model size of the Fig. 7 comparison: PM mirroring vs
// SSD checkpointing, one save and one restore each.
type fig7Point struct {
	beyondEPC     bool
	mirrorSave    core.StepTiming
	mirrorRestore core.StepTiming
	ssdSave       core.StepTiming
	ssdRestore    core.StepTiming
}

// fig7 sweeps model sizes on either side of the EPC knee on sgx-emlPM
// (paper Fig. 7) and derives Table I from the same sweep. Encrypt and
// Decrypt are wall-clock AES plus modeled paging; Write and Read are
// modeled device, ocall and enclave-copy time.
func fig7() ([]Row, error) {
	var pts []fig7Point
	for _, mb := range []int{2, 4, 40, 90} {
		p, err := runFig7Point(mb)
		if err != nil {
			return nil, fmt.Errorf("fig7 %dMB: %w", mb, err)
		}
		pts = append(pts, p)
	}
	beyond := 0
	writeX, readX := inf, inf
	for _, p := range pts {
		if p.beyondEPC {
			beyond++
		}
		writeX = min(writeX, float64(p.ssdSave.Write)/float64(p.mirrorSave.Write))
		readX = min(readX, float64(p.ssdRestore.Read)/float64(p.mirrorRestore.Read))
	}
	encryptShare := func(p fig7Point) float64 {
		return 100 * float64(p.mirrorSave.Encrypt) / float64(p.mirrorSave.Total())
	}
	rows := []Row{
		{Figure: "Fig. 7", Quantity: "sweep sizes (2, 4, 40, 90 MB) past the EPC knee", Paper: "knee at 93.5 MB usable EPC", Value: float64(beyond), Unit: "sizes", Clock: count, Lo: 1, Hi: 1},
		{Figure: "Fig. 7", Quantity: "save Write, SSD ÷ PM, min over sizes", Paper: "> 1", Value: writeX, Unit: "×", Clock: modeled, Lo: 1, Hi: inf, Open: true},
		{Figure: "Fig. 7", Quantity: "restore Read, SSD ÷ PM, min over sizes", Paper: "> 1", Value: readX, Unit: "×", Clock: modeled, Lo: 1, Hi: inf, Open: true},
		{Figure: "Fig. 7", Quantity: "PM save Write, 4 MB ÷ 2 MB", Paper: "grows with size", Value: float64(pts[1].mirrorSave.Write) / float64(pts[0].mirrorSave.Write), Unit: "×", Clock: modeled, Lo: 1, Hi: inf, Open: true},
	}
	rows = append(rows, table1aRows(computeTable1a(pts))...)
	rows = append(rows, Row{Figure: "Table Ia", Quantity: "save Encrypt share, 90 MB − 40 MB", Paper: "+25.9 (92.3 − 66.4)", Value: encryptShare(pts[3]) - encryptShare(pts[2]), Unit: "pp", Clock: wallModeled, Lo: 0, Hi: inf, Open: true})
	return append(rows, table1bRows(computeTable1b(pts))...), nil
}

// runFig7Point measures one save and one restore of a sizeMB model
// each way.
func runFig7Point(sizeMB int) (fig7Point, error) {
	cfgText, err := core.SyntheticModelConfig(sizeMB << 20)
	if err != nil {
		return fig7Point{}, err
	}
	// PM holds the sealed model's payload extent, whose two halves are
	// the mirror's shadow slots, plus slack.
	f, err := core.New(core.Config{
		ModelConfig: cfgText,
		Server:      core.SGXEmlPM(),
		PMBytes:     (sizeMB*5/2 + 48) << 20,
		Seed:        1,
	})
	if err != nil {
		return fig7Point{}, err
	}
	p := fig7Point{beyondEPC: f.Net.ParamBytes()+15<<20 > enclave.UsableEPC}
	// The timed save is the third: the first two write each payload
	// half once, so the seal, which writes straight into the emulated
	// device, pays no first-touch page fault of the emulator's memory
	// (about 0.6 ms per MiB here), which PM mapped into the enclave
	// does not.
	for i := 0; i < 2; i++ {
		if _, err := f.MirrorSave(); err != nil {
			return fig7Point{}, fmt.Errorf("mirror save: %w", err)
		}
	}
	// Collect garbage from framework construction so GC pauses do not
	// land inside the timed AES sections.
	runtime.GC()
	if p.mirrorSave, err = f.MirrorSave(); err != nil {
		return fig7Point{}, fmt.Errorf("mirror save: %w", err)
	}
	if p.mirrorRestore, err = f.MirrorRestore(); err != nil {
		return fig7Point{}, fmt.Errorf("mirror restore: %w", err)
	}
	if p.ssdSave, err = f.SSDSave("ckpt"); err != nil {
		return fig7Point{}, fmt.Errorf("ssd save: %w", err)
	}
	if p.ssdRestore, err = f.SSDRestore("ckpt"); err != nil {
		return fig7Point{}, fmt.Errorf("ssd restore: %w", err)
	}
	return p, nil
}
