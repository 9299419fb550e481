package core

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"strings"
	"time"

	"plinius/internal/darknet"
	"plinius/internal/enclave"
	"plinius/internal/engine"
	"plinius/internal/mirror"
	"plinius/internal/obs"
)

// Replica is a read-only enclave inference worker (the serving-side
// unit of internal/serve). Each replica runs in its own enclave with
// its own encryption engine and its own copy of the model, restored
// from an immutable published snapshot in PM exactly like crash
// recovery (Algorithm 3, mirror_in): the parameters travel from PM to
// the replica enclave only in sealed form. Replicas never write to PM,
// so any number of them can share one framework's PM device.
//
// A replica always restores a pinned version: the snapshot it reads is
// never overwritten mid-restore, however much training, publishing or
// key rotation runs concurrently. Between a crash of the owning
// framework and its Recover, replicas keep serving from their
// in-enclave weights; only Refresh/Rotate need the framework live.
//
// A Replica's methods are single-goroutine, like the training loop
// they are built from (the engine's *Scratch buffers and the network's
// activation caches are not shared-safe); run one goroutine per
// replica and as many replicas as desired.
type Replica struct {
	Enclave *enclave.Enclave
	f       *Framework
	eng     *engine.Engine
	net     *darknet.Network

	version   uint64
	reserved  int
	closed    bool
	quantized bool
}

// ReplicaOption configures a replica at construction.
type ReplicaOption func(*replicaConfig)

type replicaConfig struct {
	quantized bool
}

// WithQuantizedReplica builds an int8 inference replica: the enclave
// model is the quantized clone of the published architecture, restored
// from the snapshot's int8 variant — ~4x smaller sealed payload and
// EPC footprint. Creating one turns on the framework's quantized
// publication mode (SetPublishQuantized) so refreshes keep finding the
// variant.
func WithQuantizedReplica() ReplicaOption {
	return func(c *replicaConfig) { c.quantized = true }
}

// Replica errors.
var (
	ErrNoServableModel = errors.New("core: no servable model; load a dataset and train, or recover a framework whose PM holds one")
	ErrReplicaClosed   = errors.New("core: replica is closed")
)

// provisionReplicaKey runs the Fig. 5 steps 2-3 flow against a replica
// enclave: attest it, have the owner verify the quote, wrap the
// framework's current data key for the attestation channel, and unwrap
// it inside the replica enclave. It returns the provisioned key as held
// by the replica.
func (f *Framework) provisionReplicaKey(encl *enclave.Enclave) ([]byte, error) {
	f.modelMu.Lock()
	dataKey := append([]byte(nil), f.key...)
	f.modelMu.Unlock()

	sess, quote, err := encl.BeginAttestation()
	if err != nil {
		return nil, fmt.Errorf("core: replica attestation: %w", err)
	}
	owner, err := enclave.NewOwner(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("core: replica owner: %w", err)
	}
	ownerChannel, err := owner.VerifyQuote(quote, enclave.PliniusMeasurement())
	if err != nil {
		return nil, fmt.Errorf("core: replica quote: %w", err)
	}
	wrapped, err := engine.WrapKey(ownerChannel, dataKey, rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("core: replica wrap key: %w", err)
	}
	var key []byte
	err = encl.Ecall(func() error {
		ch, err := sess.CompleteAttestation(owner.PublicKey())
		if err != nil {
			return err
		}
		key, err = engine.UnwrapKey(ch, wrapped)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("core: replica key provisioning: %w", err)
	}
	return key, nil
}

// NewReplica spins up one inference replica: a fresh enclave is
// created and attested, the owner provisions the current data key over
// the attestation channel (Fig. 5 steps 2-3), and the model is
// restored from the latest published snapshot (publishing the current
// model first if nothing has been published yet). seed differentiates
// the replica's enclave RNG.
//
// The replica enclave joins the framework's host: on real SGX all
// co-located enclaves share one EPC, so every replica's working set
// counts against the same 93.5 MB and a pool sized past the budget
// pays the shared paging knee.
func (f *Framework) NewReplica(seed int64, opts ...ReplicaOption) (*Replica, error) {
	return f.NewReplicaOn(f.Host, seed, opts...)
}

// NewReplicaOn is NewReplica with an explicit host for the replica
// enclave — the train-here-serve-there shape, where inference replicas
// run on a machine whose EPC the training enclave does not occupy. The
// model still travels only through PM, sealed.
func (f *Framework) NewReplicaOn(host *enclave.Host, seed int64, opts ...ReplicaOption) (*Replica, error) {
	var cfg replicaConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	if f.Crashed() {
		return nil, ErrCrashedDown
	}
	if cfg.quantized {
		f.SetPublishQuantized(true)
	}
	latest, err := f.LatestPublished()
	if err != nil {
		return nil, err
	}
	if latest == 0 {
		if _, err := f.Publish(); err != nil {
			return nil, err
		}
	} else if cfg.quantized {
		// The latest version may predate quantized publication; make
		// sure a quant variant exists before the replica restores.
		pin, err := f.PinPublished(0)
		if err != nil {
			return nil, err
		}
		hasQuant := pin.HasQuant()
		pin.Release()
		if !hasQuant {
			// Republishing overwrites the latest version with the
			// enclave's current weights; refuse when the enclave holds
			// nothing (e.g. a dataset-less restart serving an old
			// publication) — superseding a real snapshot with random
			// weights would be worse than failing.
			if f.Iteration() == 0 {
				return nil, fmt.Errorf("core: quantized replica: latest published version predates quantized publication and the enclave holds no trained model to republish: %w", mirror.ErrNoQuant)
			}
			if _, err := f.Publish(); err != nil {
				return nil, err
			}
		}
	}
	r := &Replica{f: f, quantized: cfg.quantized}
	r.Enclave = host.NewEnclave(enclave.WithSeed(seed), enclave.WithName("replica"))

	key, err := f.provisionReplicaKey(r.Enclave)
	if err != nil {
		_ = r.Enclave.Close()
		return nil, err
	}
	r.eng, err = engine.New(key, engine.WithEnclave(r.Enclave))
	if err != nil {
		_ = r.Enclave.Close()
		return nil, fmt.Errorf("core: replica engine: %w", err)
	}

	// Build the replica's enclave model (zero weights: no init to throw
	// away) and overwrite it from the pinned published snapshot. A
	// quantized replica clones the architecture into its int8 inference
	// form first, so only the quantized parameters are ever resident.
	net, err := darknet.ParseConfig(strings.NewReader(f.cfg.ModelConfig), nil)
	if err != nil {
		_ = r.Enclave.Close()
		return nil, fmt.Errorf("core: replica model config: %w", err)
	}
	if cfg.quantized {
		if net, err = darknet.QuantizeNetwork(net); err != nil {
			_ = r.Enclave.Close()
			return nil, fmt.Errorf("core: replica quantize: %w", err)
		}
	}
	err = r.Enclave.Ecall(func() error {
		r.net = net
		if cfg.quantized {
			r.reserved = darknet.QuantParamBytes(net) + f.cfg.TrainOverheadBytes
		} else {
			r.reserved = net.ParamBytes() + f.cfg.TrainOverheadBytes
		}
		return r.Enclave.Reserve(r.reserved)
	})
	if err != nil {
		_ = r.Enclave.Close()
		return nil, fmt.Errorf("core: replica reserve: %w", err)
	}
	if _, err := r.Refresh(); err != nil {
		_ = r.Close()
		return nil, fmt.Errorf("core: replica restore: %w", err)
	}
	return r, nil
}

// ClassifyBatch classifies the images laid out contiguously in one
// network forward inside the replica enclave and returns one class per
// image.
func (r *Replica) ClassifyBatch(images []float32) ([]int, error) {
	return r.ClassifyBatchCtx(context.Background(), images)
}

// ClassifyBatchCtx is ClassifyBatch with a context: when ctx carries an
// obs.Trace the enclave forward is recorded as a "compute" span.
func (r *Replica) ClassifyBatchCtx(ctx context.Context, images []float32) ([]int, error) {
	if r.closed {
		return nil, ErrReplicaClosed
	}
	start := time.Now()
	classes, err := classifyBatch(r.Enclave, r.net, images)
	obs.SpanInto(ctx, "compute", time.Since(start))
	return classes, err
}

// Refresh pins the latest published model version, restores it into
// the replica enclave, and returns the restored iteration. It never
// races a concurrent publish or training mirror-out: the pinned
// snapshot is immutable while held.
func (r *Replica) Refresh() (int, error) {
	if r.closed {
		return 0, ErrReplicaClosed
	}
	pin, err := r.f.PinPublished(0)
	if err != nil {
		return 0, fmt.Errorf("core: replica refresh: %w", err)
	}
	defer pin.Release()
	var iter int
	err = r.Enclave.Ecall(func() error {
		r.f.pmMu.Lock()
		defer r.f.pmMu.Unlock()
		if r.quantized {
			qm, err := pin.OpenQuant(r.eng, mirror.WithEnclave(r.Enclave))
			if err != nil {
				return err
			}
			it, err := qm.RestoreInto(r.net)
			iter = it
			return err
		}
		m, err := pin.Open(r.eng, mirror.WithEnclave(r.Enclave))
		if err != nil {
			return err
		}
		it, err := m.MirrorIn(r.net)
		iter = it
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("core: replica refresh: %w", err)
	}
	r.version = pin.Version()
	return iter, nil
}

// Rotate re-provisions the framework's current data key into the
// replica enclave over a fresh attestation channel, rebuilds the
// replica's engine around it, and refreshes to the latest published
// snapshot (which the rotation published under the new key). The
// replica keeps serving its in-enclave weights up to the moment Rotate
// returns.
func (r *Replica) Rotate() (int, error) {
	if r.closed {
		return 0, ErrReplicaClosed
	}
	key, err := r.f.provisionReplicaKey(r.Enclave)
	if err != nil {
		return 0, fmt.Errorf("core: replica rotate: %w", err)
	}
	eng, err := engine.New(key, engine.WithEnclave(r.Enclave))
	if err != nil {
		return 0, fmt.Errorf("core: replica rotate engine: %w", err)
	}
	r.eng = eng
	return r.Refresh()
}

// Iteration returns the training iteration of the restored model.
func (r *Replica) Iteration() int { return r.net.Iteration }

// Precision returns the replica's serving parameter precision.
func (r *Replica) Precision() darknet.Precision {
	if r.quantized {
		return darknet.Int8
	}
	return darknet.FP32
}

// Version returns the published model version the replica serves.
func (r *Replica) Version() uint64 { return r.version }

// InputSize returns the flattened per-image input size.
func (r *Replica) InputSize() int { return r.net.InputSize() }

// Close tears down the replica enclave, returning its entire EPC
// footprint to the host's shared budget.
func (r *Replica) Close() error {
	if r.closed {
		return ErrReplicaClosed
	}
	r.closed = true
	r.reserved = 0
	return r.Enclave.Close()
}
