// Package core implements the Plinius framework: secure ML model
// training in an (emulated) SGX enclave with fault tolerance on
// (emulated) persistent memory through the mirroring mechanism.
//
// A Framework wires together every substrate — the enclave, the PM
// device, SGX-Romulus, the encryption engine, SGX-Darknet and the
// mirroring module — and drives the paper's full workflow (Fig. 5):
// remote attestation and key provisioning, dataset loading into
// encrypted byte-addressable PM, iterative training with per-iteration
// encrypted mirroring (Algorithm 2), crash recovery, and secure
// inference. It also implements the SSD checkpointing baseline the
// paper compares against (checkpoint.go).
package core

import (
	"crypto/rand"
	"errors"
	"fmt"
	mrand "math/rand"
	"strings"
	"sync"

	"plinius/internal/darknet"
	"plinius/internal/enclave"
	"plinius/internal/engine"
	"plinius/internal/mirror"
	"plinius/internal/mnist"
	"plinius/internal/pm"
	"plinius/internal/romulus"
	"plinius/internal/storage"
)

// ServerProfile bundles the hardware cost models of one evaluation
// machine.
type ServerProfile struct {
	Name    string
	Enclave enclave.Profile
	PM      pm.Profile
	SSD     storage.Profile
}

// SGXEmlPM returns the paper's sgx-emlPM server: real SGX, PM emulated
// with a ramdisk.
func SGXEmlPM() ServerProfile {
	return ServerProfile{
		Name:    "sgx-emlPM",
		Enclave: enclave.SGXEmlPMProfile(),
		PM:      pm.RamdiskProfile(),
		SSD:     storage.SSDProfile(),
	}
}

// EmlSGXPM returns the paper's emlSGX-PM server: SGX in simulation
// mode, real Optane PM.
func EmlSGXPM() ServerProfile {
	return ServerProfile{
		Name:    "emlSGX-PM",
		Enclave: enclave.EmlSGXPMProfile(),
		PM:      pm.OptaneProfile(),
		SSD:     storage.SSDSlowProfile(),
	}
}

// Config parameterises a Framework.
type Config struct {
	// ModelConfig is the Darknet .cfg text of the model to train.
	ModelConfig string
	// Server selects the machine cost model (default SGXEmlPM).
	Server ServerProfile
	// PMBytes sizes the PM device (default 256 MB).
	PMBytes int
	// MirrorFreq mirrors the model every N iterations. 0 means the
	// paper's default of every iteration; negative disables mirroring
	// entirely (the non-crash-resilient baseline of Fig. 9b/10c).
	MirrorFreq int
	// Host places the framework's enclaves on an existing EPC host, so
	// co-located frameworks share one usable-EPC budget the way real
	// SGX enclaves on one machine do: each charges its working set to
	// the same 93.5 MB, and the paging knee is reached by the host's
	// aggregate footprint, not any single enclave's. Serving replicas
	// always join their framework's host. Nil creates a private host
	// from Server.Enclave (the paper's one-enclave-per-machine setup).
	// When set, the host's cost profile takes precedence over
	// Server.Enclave for enclave costs.
	Host *enclave.Host
	// Seed drives all randomness (weights, batches, enclave RNG).
	Seed int64
	// DataKey is the 128-bit data encryption key. Empty means run the
	// full remote-attestation provisioning flow with a fresh owner key.
	DataKey []byte
	// PlaintextData stores training rows unencrypted in PM (Fig. 8
	// baseline only).
	PlaintextData bool
	// TrainOverheadBytes approximates the enclave working set beyond
	// the model parameters (activation/encryption buffers, code). The
	// paper observes the EPC limit being reached at 78 MB of model for
	// 93.5 MB of usable EPC, i.e. ~15 MB of other state.
	TrainOverheadBytes int
}

const (
	defaultPMBytes  = 256 << 20
	defaultOverhead = 15 << 20
)

// Framework errors.
var (
	ErrNoDataset    = errors.New("core: no dataset loaded; call LoadDataset first")
	ErrNotCrashed   = errors.New("core: recover called on a live framework")
	ErrCrashedDown  = errors.New("core: framework is crashed; call Recover")
	ErrMirroringOff = errors.New("core: mirroring is disabled (MirrorFreq < 0)")
)

// Framework is a live Plinius instance.
//
// Concurrency: the v2 API allows one training goroutine (Train) to run
// while other goroutines publish snapshots, rotate keys, or restore
// replica enclaves from PM. Two internal locks arbitrate:
//
//   - modelMu owns the enclave model parameters, the engine/key
//     identity, and the crash flag. Train holds it per iteration (not
//     across the whole run), so publication and rotation interleave at
//     iteration boundaries.
//   - pmMu owns the PM device and the Romulus heap. Every PM
//     transaction or load anywhere in the process — training mirror,
//     data matrix, publication table, replica restores — runs under it.
//
// Lock order is always modelMu before pmMu.
type Framework struct {
	cfg Config

	Host    *enclave.Host
	Enclave *enclave.Enclave
	PM      *pm.Device
	SSD     *storage.Device
	Rom     *romulus.Romulus
	Engine  *engine.Engine
	Net     *darknet.Network
	Mirror  *mirror.Model
	Data    *mirror.DataMatrix

	modelMu sync.Mutex
	pmMu    sync.Mutex

	key      []byte
	rng      *mrand.Rand
	reserved int
	crashed  bool
	pub      *mirror.Publication
	pubQuant bool // publish int8 variants alongside fp32 (guarded by pmMu)

	// testAbortResealAfter > 0 makes the next RotateKey abort its data
	// reseal after that many chunks — a deterministic stand-in for a
	// crash mid-rotation (test hook; see rotation.go).
	testAbortResealAfter int
}

// New builds a Framework: it creates the enclave, provisions the data
// key (via remote attestation when none is supplied), maps the PM
// device through SGX-Romulus, and builds the enclave model from the
// config (parsed in the untrusted runtime, passed in via an ecall, as
// in §IV).
func New(cfg Config) (*Framework, error) {
	if cfg.ModelConfig == "" {
		return nil, errors.New("core: ModelConfig is required")
	}
	if cfg.Server.Name == "" {
		cfg.Server = SGXEmlPM()
	}
	if cfg.PMBytes == 0 {
		cfg.PMBytes = defaultPMBytes
	}
	if cfg.MirrorFreq == 0 {
		cfg.MirrorFreq = 1
	}
	if cfg.TrainOverheadBytes == 0 {
		cfg.TrainOverheadBytes = defaultOverhead
	}

	f := &Framework{cfg: cfg}
	f.Host = cfg.Host
	if f.Host == nil {
		f.Host = enclave.NewHost(cfg.Server.Enclave)
	}
	f.Enclave = f.Host.NewEnclave(enclave.WithSeed(cfg.Seed), enclave.WithName("train"))
	f.SSD = storage.NewDevice(cfg.Server.SSD)
	dev, err := pm.New(cfg.PMBytes, pm.WithProfile(cfg.Server.PM))
	if err != nil {
		return nil, fmt.Errorf("core: pm device: %w", err)
	}
	f.PM = dev

	if err := f.provisionKey(); err != nil {
		return nil, err
	}
	eng, err := engine.New(f.key, engine.WithEnclave(f.Enclave))
	if err != nil {
		return nil, fmt.Errorf("core: engine: %w", err)
	}
	f.Engine = eng

	// Algorithm 1: the untrusted helper mmaps PM and passes the header
	// address into the enclave, which validates and recovers.
	err = f.Enclave.Ecall(func() error {
		rom, err := romulus.Open(dev, romulus.WithEnv(romulusEnv(cfg.Server)))
		if err != nil {
			return err
		}
		f.Rom = rom
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: romulus init: %w", err)
	}

	if err := f.buildModel(true); err != nil {
		return nil, err
	}
	f.rng = mrand.New(mrand.NewSource(cfg.Seed + 1))
	return f, nil
}

// romulusEnv maps the server profile to a Romulus execution environment.
func romulusEnv(s ServerProfile) romulus.Env {
	if s.Enclave.HardwareSGX {
		return romulus.SGXEnv()
	}
	return romulus.NativeEnv()
}

// provisionKey establishes the data key: either the caller supplied it
// (already provisioned out of band) or the full Fig. 5 steps 2-3 run —
// remote attestation, quote verification by the owner, ECDH channel,
// wrapped-key delivery, in-enclave unwrap.
func (f *Framework) provisionKey() error {
	if len(f.cfg.DataKey) == engine.KeySize {
		f.key = append([]byte(nil), f.cfg.DataKey...)
		return nil
	}
	if len(f.cfg.DataKey) != 0 {
		return fmt.Errorf("core: data key must be %d bytes, got %d", engine.KeySize, len(f.cfg.DataKey))
	}
	sess, quote, err := f.Enclave.BeginAttestation()
	if err != nil {
		return fmt.Errorf("core: attestation: %w", err)
	}
	owner, err := enclave.NewOwner(rand.Reader)
	if err != nil {
		return fmt.Errorf("core: owner: %w", err)
	}
	ownerChannel, err := owner.VerifyQuote(quote, enclave.PliniusMeasurement())
	if err != nil {
		return fmt.Errorf("core: quote verification: %w", err)
	}
	dataKey, err := engine.GenerateKey(rand.Reader)
	if err != nil {
		return fmt.Errorf("core: owner keygen: %w", err)
	}
	wrapped, err := engine.WrapKey(ownerChannel, dataKey, rand.Reader)
	if err != nil {
		return fmt.Errorf("core: wrap key: %w", err)
	}
	// Enclave side: derive the same channel key and unwrap.
	return f.Enclave.Ecall(func() error {
		enclaveChannel, err := sess.CompleteAttestation(owner.PublicKey())
		if err != nil {
			return fmt.Errorf("core: complete attestation: %w", err)
		}
		key, err := engine.UnwrapKey(enclaveChannel, wrapped)
		if err != nil {
			return fmt.Errorf("core: unwrap key: %w", err)
		}
		f.key = key
		return nil
	})
}

// buildModel parses the config in the untrusted runtime and builds the
// enclave model via an ecall, reserving its EPC footprint. With
// initWeights false the weights stay zero: the caller restores them
// from PM in the same call.
func (f *Framework) buildModel(initWeights bool) error {
	var rng *mrand.Rand
	if initWeights {
		rng = mrand.New(mrand.NewSource(f.cfg.Seed))
	}
	net, err := darknet.ParseConfig(strings.NewReader(f.cfg.ModelConfig), rng)
	if err != nil {
		return fmt.Errorf("core: model config: %w", err)
	}
	return f.Enclave.Ecall(func() error {
		f.Net = net
		f.reserved = net.ParamBytes() + f.cfg.TrainOverheadBytes
		if err := f.Enclave.Reserve(f.reserved); err != nil {
			return fmt.Errorf("core: reserve model: %w", err)
		}
		return nil
	})
}

// LoadDataset runs the PM-data module path (Fig. 5 step 4): the sealed
// dataset is read from secondary storage via an ocall and transformed
// into the encrypted byte-addressable matrix in PM.
func (f *Framework) LoadDataset(ds *mnist.Dataset) error {
	if f.crashed {
		return ErrCrashedDown
	}
	if err := ds.Validate(); err != nil {
		return err
	}
	// Untrusted helper reads the initial dataset from secondary storage
	// into DRAM (charged as one ocall plus the SSD read).
	err := f.Enclave.Ocall(func() error {
		name := "dataset.enc"
		fh, err := f.SSD.Create(name)
		if err != nil {
			return err
		}
		sealedSize := ds.N * engine.SealedLen(4*(mnist.Rows*mnist.Cols+mnist.Classes))
		if _, err := fh.Write(make([]byte, sealedSize)); err != nil {
			return err
		}
		if _, err := fh.Seek(0, 0); err != nil {
			return err
		}
		buf := make([]byte, sealedSize)
		if _, err := fh.Read(buf); err != nil {
			return err
		}
		return fh.Close()
	})
	if err != nil {
		return fmt.Errorf("core: dataset staging: %w", err)
	}
	var opts []mirror.DataOption
	if f.cfg.PlaintextData {
		opts = append(opts, mirror.WithPlaintextRows())
	}
	f.pmMu.Lock()
	defer f.pmMu.Unlock()
	return f.Enclave.Ecall(func() error {
		dm, err := mirror.LoadData(f.Rom, f.Engine, ds, opts...)
		if err != nil {
			return fmt.Errorf("core: load data to PM: %w", err)
		}
		f.Data = dm
		return nil
	})
}

func (f *Framework) mirroring() bool { return f.cfg.MirrorFreq > 0 }

// attachMirror implements Algorithm 2 lines 7-12: restore from an
// existing persistent model or allocate a fresh one. Callers gate on
// whether mirroring applies to the current run and hold pmMu.
func (f *Framework) attachMirror() error {
	if f.Mirror != nil {
		return nil
	}
	if mirror.Exists(f.Rom) {
		m, err := mirror.OpenModel(f.Rom, f.Engine, mirror.WithEnclave(f.Enclave))
		if err != nil {
			return fmt.Errorf("core: open mirror: %w", err)
		}
		if _, err := m.MirrorIn(f.Net); err != nil {
			return fmt.Errorf("core: mirror in: %w", err)
		}
		f.Mirror = m
		return nil
	}
	m, err := mirror.AllocModel(f.Rom, f.Engine, f.Net, mirror.WithEnclave(f.Enclave))
	if err != nil {
		return fmt.Errorf("core: alloc mirror: %w", err)
	}
	f.Mirror = m
	return nil
}

// Crash simulates a power failure or spot-instance reclamation: the
// enclave and all volatile state vanish, and PM loses every unflushed
// cache line. Crash must not race a running Train; cancel the training
// context first (serving replicas keep answering from their in-enclave
// weights across the framework's down window).
func (f *Framework) Crash() {
	f.modelMu.Lock()
	defer f.modelMu.Unlock()
	f.pmMu.Lock()
	defer f.pmMu.Unlock()
	f.PM.Crash()
	f.Rom = nil
	f.Mirror = nil
	f.Data = nil
	f.Net = nil
	f.pub = nil
	f.crashed = true
	if f.reserved > 0 {
		_ = f.Enclave.Free(f.reserved)
		f.reserved = 0
	}
}

// Recover restarts the process after a Crash: SGX-Romulus re-opens the
// PM heap (running its recovery), a fresh enclave model is built, and
// the persistent data matrix is re-attached. The model parameters
// themselves are restored lazily by Train via mirror-in (over random
// weights) — or immediately if restoreNow is true, in which case the
// random init is skipped as the mirror overwrites every parameter.
func (f *Framework) Recover(restoreNow bool) error {
	f.modelMu.Lock()
	defer f.modelMu.Unlock()
	f.pmMu.Lock()
	defer f.pmMu.Unlock()
	if !f.crashed {
		return ErrNotCrashed
	}
	err := f.Enclave.Ecall(func() error {
		rom, err := romulus.Open(f.PM, romulus.WithEnv(romulusEnv(f.cfg.Server)))
		if err != nil {
			return err
		}
		f.Rom = rom
		return nil
	})
	if err != nil {
		return fmt.Errorf("core: recover romulus: %w", err)
	}
	// Restore whenever PM actually holds a mirror — it may exist even
	// with config-level mirroring off (a run used the MirrorEvery
	// override).
	restore := restoreNow && mirror.Exists(f.Rom)
	if err := f.buildModel(!restore); err != nil {
		return err
	}
	f.crashed = false
	if mirror.DataExists(f.Rom) {
		var opts []mirror.DataOption
		if f.cfg.PlaintextData {
			opts = append(opts, mirror.WithPlaintextRows())
		}
		dm, err := mirror.OpenData(f.Rom, f.Engine, opts...)
		if err != nil {
			return fmt.Errorf("core: reopen data: %w", err)
		}
		f.Data = dm
	}
	// A crash mid-key-rotation left PM with mixed key epochs; the
	// rotation marker records exactly how far it got, and recovery
	// finishes the reseal before anything tries to decrypt. Must run
	// before any mirror restore, which would otherwise hit rows of the
	// wrong epoch.
	if err := f.maybeFinishRotation(); err != nil {
		return err
	}
	if restore {
		return f.Enclave.Ecall(f.attachMirror)
	}
	return nil
}

// Infer classifies the test set with the trained enclave model and
// returns the accuracy in [0,1] (§VI secure inference). Samples are
// classified in micro-batches of the model's configured batch size —
// one network forward per chunk instead of per sample — which is
// bit-identical to per-sample classification because every layer
// processes samples independently.
func (f *Framework) Infer(test *mnist.Dataset) (float64, error) {
	if f.crashed {
		return 0, ErrCrashedDown
	}
	if err := test.Validate(); err != nil {
		return 0, err
	}
	chunk := f.Net.Config.Batch
	if chunk <= 0 {
		chunk = 1
	}
	// Chunks are sliced at the dataset's stride; the network's own
	// input check rejects a model whose input shape disagrees, as the
	// per-sample path did.
	in := mnist.Rows * mnist.Cols
	correct := 0
	err := f.Enclave.Ecall(func() error {
		for start := 0; start < test.N; start += chunk {
			end := start + chunk
			if end > test.N {
				end = test.N
			}
			x := test.Images[start*in : end*in]
			f.Enclave.Touch(4 * len(x))
			classes, err := f.Net.ClassifyBatch(x, end-start)
			if err != nil {
				return err
			}
			for i, cls := range classes {
				if cls == test.Labels[start+i] {
					correct++
				}
			}
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("core: inference: %w", err)
	}
	return float64(correct) / float64(test.N), nil
}

// Classify classifies one image with the enclave model (the §VI
// request path: the input never leaves the enclave unencrypted).
func (f *Framework) Classify(image []float32) (int, error) {
	classes, err := f.ClassifyBatch(image)
	if err != nil {
		return 0, err
	}
	return classes[0], nil
}

// ClassifyBatch classifies the images laid out contiguously in one
// network forward (the serving micro-batch path) and returns one class
// per image.
func (f *Framework) ClassifyBatch(images []float32) ([]int, error) {
	if f.crashed {
		return nil, ErrCrashedDown
	}
	return classifyBatch(f.Enclave, f.Net, images)
}

// classifyBatch is the shared enclave micro-batch forward used by both
// the Framework and its serving Replicas: validate the layout, charge
// EPC for the staged batch, one ecall, one forward.
func classifyBatch(encl *enclave.Enclave, net *darknet.Network, images []float32) ([]int, error) {
	in := net.InputSize()
	if len(images) == 0 || len(images)%in != 0 {
		return nil, fmt.Errorf("core: classify: %d floats is not a positive multiple of the %d-float input", len(images), in)
	}
	var classes []int
	err := encl.Ecall(func() error {
		encl.Touch(4 * len(images))
		cs, err := net.ClassifyBatch(images, len(images)/in)
		classes = cs
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("core: inference: %w", err)
	}
	return classes, nil
}

// ReplicaFootprint returns the EPC working set one serving replica of
// this framework's model will claim on the host: the model parameters
// plus the per-enclave overhead (activation/encryption buffers, code).
// Serving uses it to size replica pools against Host.Headroom.
func (f *Framework) ReplicaFootprint() int {
	return f.ReplicaFootprintAt(darknet.FP32)
}

// ReplicaFootprintAt is ReplicaFootprint at an explicit serving
// precision: an int8 replica holds the quantized parameters (~4x
// smaller), so more replicas fit the same EPC headroom.
func (f *Framework) ReplicaFootprintAt(prec darknet.Precision) int {
	f.modelMu.Lock()
	defer f.modelMu.Unlock()
	if f.Net == nil {
		return 0
	}
	if prec == darknet.Int8 {
		return darknet.QuantParamBytes(f.Net) + f.cfg.TrainOverheadBytes
	}
	return f.Net.ParamBytes() + f.cfg.TrainOverheadBytes
}

// Iteration returns the model's completed iteration count.
func (f *Framework) Iteration() int {
	f.modelMu.Lock()
	defer f.modelMu.Unlock()
	if f.Net == nil {
		return 0
	}
	return f.Net.Iteration
}

// Key returns a copy of the provisioned data key (test hook).
func (f *Framework) Key() []byte {
	f.modelMu.Lock()
	defer f.modelMu.Unlock()
	return append([]byte(nil), f.key...)
}

// Crashed reports whether the framework is down awaiting Recover.
func (f *Framework) Crashed() bool {
	f.modelMu.Lock()
	defer f.modelMu.Unlock()
	return f.crashed
}
