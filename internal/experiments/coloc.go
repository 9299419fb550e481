package experiments

import (
	"fmt"
	"runtime"
	"time"

	"plinius/internal/core"
	"plinius/internal/enclave"
)

// Co-located-enclaves experiment: the shared-EPC extension of Fig. 7.
// The paper measures the paging knee with one enclave owning the whole
// 93.5 MB usable EPC; real SGX shares one EPC per host, so several
// enclaves each comfortably under the budget hit the same knee once
// their joint working set crosses it. 40 MB of parameters + 15 MB
// default overhead = ~55 MB per tenant: one fits (55 < 93.5), two do
// not (110 > 93.5). Tenant 0's mirror save is paging-free alone and
// pays the full all-miss fault stream as soon as a second tenant
// arrives — the knee moved from "my footprint > 93.5 MB" to "our
// footprint > 93.5 MB".
const colocSizeMB = 40

// colocPoint is tenant 0's view of one host occupancy.
type colocPoint struct {
	// eachUnderEPC: every tenant alone fits the usable EPC.
	eachUnderEPC bool
	// hostOverEPC: the tenants jointly overcommit it.
	hostOverEPC bool
	// encrypt is the Encrypt step of tenant 0's save: AES wall time
	// plus modeled paging.
	encrypt time.Duration
	// swaps is the page faults tenant 0 paid for the save, and
	// contention the subset paid while its own footprint was under the
	// budget — co-location damage.
	swaps, contention uint64
}

// coloc places one and then two identical frameworks on one host and
// measures tenant 0's mirror save at each occupancy, on sgx-emlPM and
// in SGX simulation mode (emlSGX-PM), where co-location, like every
// other SGX effect, costs nothing.
func coloc() ([]Row, error) {
	var hw, sim [2]colocPoint
	for i := range hw {
		var err error
		if hw[i], err = runColocPoint(core.SGXEmlPM(), i+1); err != nil {
			return nil, err
		}
		if sim[i], err = runColocPoint(core.EmlSGXPM(), i+1); err != nil {
			return nil, err
		}
	}
	solo, shared := hw[0], hw[1]
	under, knee := 0, 0
	for i, p := range hw {
		if p.eachUnderEPC {
			under++
		}
		if p.hostOverEPC && knee == 0 {
			knee = i + 1
		}
	}
	return []Row{
		{Figure: "Coloc", Quantity: "occupancies (1, 2 tenants) where each tenant fits the EPC", Paper: "extension", Value: float64(under), Unit: "occupancies", Clock: count, Lo: 2, Hi: 2},
		{Figure: "Coloc", Quantity: "fewest tenants that overcommit the host", Paper: "extension", Value: float64(knee), Unit: "tenants", Clock: count, Lo: 2, Hi: 2},
		{Figure: "Coloc", Quantity: "page swaps per save, 1 tenant", Paper: "extension", Value: float64(solo.swaps), Unit: "swaps", Clock: count, Lo: 0, Hi: 0},
		{Figure: "Coloc", Quantity: "page swaps per save, 2 tenants", Paper: "extension", Value: float64(shared.swaps), Unit: "swaps", Clock: count, Lo: 0, Hi: inf, Open: true},
		{Figure: "Coloc", Quantity: "share of those swaps paid to co-location", Paper: "extension", Value: float64(shared.contention) / float64(shared.swaps), Unit: "fraction", Clock: count, Lo: 1, Hi: 1},
		{Figure: "Coloc", Quantity: "save Encrypt, 2 tenants ÷ 1 tenant", Paper: "extension", Value: float64(shared.encrypt) / float64(solo.encrypt), Unit: "×", Clock: wallModeled, Lo: 1, Hi: inf, Open: true},
		{Figure: "Coloc", Quantity: "page swaps per save in simulation mode, 1 + 2 tenants", Paper: "extension", Value: float64(sim[0].swaps + sim[1].swaps), Unit: "swaps", Clock: count, Lo: 0, Hi: 0},
	}, nil
}

func runColocPoint(server core.ServerProfile, tenants int) (colocPoint, error) {
	cfgText, err := core.SyntheticModelConfig(colocSizeMB << 20)
	if err != nil {
		return colocPoint{}, err
	}
	host := enclave.NewHost(server.Enclave)
	fws := make([]*core.Framework, tenants)
	for i := range fws {
		f, err := core.New(core.Config{
			ModelConfig: cfgText,
			Server:      server,
			Host:        host,
			PMBytes:     (colocSizeMB*5/2 + 48) << 20,
			Seed:        7 + int64(i),
		})
		if err != nil {
			return colocPoint{}, fmt.Errorf("coloc %s tenant %d of %d: %w", server.Name, i, tenants, err)
		}
		fws[i] = f
	}
	f0 := fws[0]
	p := colocPoint{
		eachUnderEPC: f0.Enclave.Footprint() <= enclave.UsableEPC,
		hostOverEPC:  host.OverEPC(),
	}
	s0 := f0.Enclave.Stats()
	runtime.GC()
	st, err := f0.MirrorSave()
	if err != nil {
		return colocPoint{}, fmt.Errorf("coloc %s x%d mirror save: %w", server.Name, tenants, err)
	}
	p.encrypt = st.Encrypt
	s1 := f0.Enclave.Stats()
	p.swaps = s1.PageSwaps - s0.PageSwaps
	p.contention = s1.ContentionSwaps - s0.ContentionSwaps
	return p, nil
}
