package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	mrand "math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"plinius/internal/darknet"
	"plinius/internal/mirror"
	"plinius/internal/mnist"
	"plinius/internal/pm"
)

// crashRow is one durable writer of TestCrashSweep. prepare brings a
// fresh framework to the state before the write; check asserts that the
// framework recovered from a crash inside write is in a legal state:
// the state before the write or the state after it, which done (the
// write returned) requires.
type crashRow struct {
	name string
	// mirrorOff runs the framework without a training mirror.
	mirrorOff bool
	// lazy recovers with Recover(false), so the model is restored by
	// the check's first use instead of by Recover.
	lazy    bool
	prepare func(f *Framework) error
	write   func(f *Framework) error
	check   func(f *Framework, done bool) error
}

// sweepRows is the fixture size of the dataset rows: past one 64-row
// block, so a load commits two transactions and a rotation re-seals two
// blocks, and crashes land inside the second of each too.
const sweepRows = 70

// sweepCrashes crashes row's write at its k-th persistence event, for
// k = 1, 2, ... until the write completes: each point runs on a fresh
// framework (a fixed data key, so no attestation per point, and a small
// device), crashes and recovers it, and checks the row's legal states.
// It returns the number of crash points.
func sweepCrashes(t *testing.T, row crashRow) int {
	t.Helper()
	cfg := Config{ModelConfig: darknet.MNISTConfig(1, 4, 16), PMBytes: 4 << 20, Seed: 11, DataKey: []byte("0123456789abcdef")}
	if row.mirrorOff {
		cfg.MirrorFreq = -1
	}
	for k := 1; ; k++ {
		f := newFramework(t, cfg)
		if err := row.prepare(f); err != nil {
			t.Fatalf("prepare: %v", err)
		}
		f.PM.CrashAt(k)
		err := row.write(f)
		if err != nil && !errors.Is(err, pm.ErrCrashed) {
			t.Fatalf("crash point %d: write: %v", k, err)
		}
		f.Crash()
		if rerr := f.Recover(!row.lazy); rerr != nil {
			t.Fatalf("crash point %d: Recover: %v", k, rerr)
		}
		if cerr := row.check(f, err == nil); cerr != nil {
			t.Fatalf("crash point %d: %v", k, cerr)
		}
		if err == nil {
			return k - 1
		}
	}
}

// TestCrashSweep crashes every durable writer at every persistence
// event it issues (pm.Device.CrashAt) and asserts that Crash + Recover
// always leaves that writer's old or new state, never a framework that
// cannot recover, serve or train.
func TestCrashSweep(t *testing.T) {
	rows := []crashRow{
		romulusTxRow(),
		mirrorOutRow("first_mirror_out", false),
		mirrorOutRow("steady_mirror_out", true),
		publishRow(t, "publish_fp32", false),
		publishRow(t, "publish_int8", true),
		publishByReferenceRow(t),
		recordLayoutRow(),
		loadDatasetRow(),
		rotateKeyRow(t, "rotate_key", true, false),
		rotateKeyRow(t, "rotate_key_lazy_recover", true, true),
		rotateKeyRow(t, "rotate_key_mirror_off", false, false),
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			t.Logf("%d crash points", sweepCrashes(t, row))
		})
	}
}

// romulusTxRow overwrites a 256-byte block in one raw Romulus
// transaction: recovery reads all old or all new bytes.
func romulusTxRow() crashRow {
	oldData := bytes.Repeat([]byte{0xAA}, 256)
	newData := bytes.Repeat([]byte{0x55}, 256)
	var off int
	return crashRow{
		name: "romulus_transaction",
		prepare: func(f *Framework) error {
			return f.Rom.Update(func() error {
				o, err := f.Rom.Alloc(len(oldData))
				if err != nil {
					return err
				}
				off = o
				return f.Rom.Store(off, oldData)
			})
		},
		write: func(f *Framework) error {
			return f.Rom.Update(func() error { return f.Rom.Store(off, newData) })
		},
		check: func(f *Framework, done bool) error {
			got := make([]byte, len(newData))
			if err := f.Rom.Load(off, got); err != nil || !bytes.Equal(got, newData) && (done || !bytes.Equal(got, oldData)) {
				return fmt.Errorf("recovered block %x..., err %v: want all old or all new", got[:8], err)
			}
			return nil
		},
	}
}

// heapCursors are the two allocation cursors of a framework's heap:
// the logged heap's top and the payload extents' bottom.
type heapCursors struct{ used, payload int }

// cursorLog records the heap cursors of every crash point's framework
// after recovery and the row's retry of the write.
type cursorLog []heapCursors

// check records f's cursors and, at the clean run (done), fails unless
// every crash point left them where the clean run does: a write that a
// crash leaves allocated but unreferenced leaks its region forever, as
// Romulus has no free.
func (l *cursorLog) check(f *Framework, done bool) error {
	*l = append(*l, heapCursors{f.Rom.Used(), f.Rom.PayloadCursor()})
	if !done {
		return nil
	}
	clean := (*l)[len(*l)-1]
	for k, c := range *l {
		if c != clean {
			return fmt.Errorf("recovery and retry after crash point %d left heap cursors %+v, a clean run %+v", k+1, c, clean)
		}
	}
	return nil
}

// perturbParams shifts every parameter of net by delta.
func perturbParams(net *darknet.Network, delta float32) {
	for _, l := range net.Layers {
		for _, p := range l.Params() {
			for i := range p {
				p[i] += delta
			}
		}
	}
}

// mirrorOutRow saves the model with MirrorSave: the first save of the
// framework, or (steady) a save over a mirror of iteration 10. Recovery
// restores the previous mirror (none at all before the first) or the
// new one, bit for bit, and the recovered framework mirrors again,
// leaving the heap cursors where a clean run does.
func mirrorOutRow(name string, steady bool) crashRow {
	var oldIter, oldHash, newHash uint64
	var cursors cursorLog
	return crashRow{
		name: name,
		prepare: func(f *Framework) error {
			oldIter, oldHash = 0, paramHash(f.Net)
			if steady {
				f.Net.Iteration, oldIter = 10, 10
				if _, err := f.MirrorSave(); err != nil {
					return err
				}
				perturbParams(f.Net, 0.5)
			}
			f.Net.Iteration, newHash = 11, paramHash(f.Net)
			return nil
		},
		write: func(f *Framework) error {
			_, err := f.MirrorSave()
			return err
		},
		check: func(f *Framework, done bool) error {
			iter, hash := uint64(f.Iteration()), paramHash(f.Net)
			if (iter != 11 || hash != newHash) && (iter != oldIter || hash != oldHash || done) {
				return fmt.Errorf("recovered iteration %d (old %d, new 11), parameters old %v new %v",
					iter, oldIter, hash == oldHash, hash == newHash)
			}
			if mirror.Exists(f.Rom) != (iter > 0) {
				return fmt.Errorf("mirror rooted = %v at iteration %d", mirror.Exists(f.Rom), iter)
			}
			if _, err := f.MirrorSave(); err != nil {
				return err
			}
			return cursors.check(f, done)
		},
	}
}

// sweepNet parses an MNIST model of the given shape, seeded, with its
// parameters shifted by delta.
func sweepNet(t *testing.T, convLayers int, seed int64, delta float32) *darknet.Network {
	t.Helper()
	net, err := darknet.ParseConfig(strings.NewReader(darknet.MNISTConfig(convLayers, 4, 8)), mrand.New(mrand.NewSource(seed)))
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	perturbParams(net, delta)
	return net
}

// quantize returns net's int8 clone.
func quantize(t *testing.T, net *darknet.Network) *darknet.Network {
	t.Helper()
	qnet, err := darknet.QuantizeNetwork(net)
	if err != nil {
		t.Fatalf("QuantizeNetwork: %v", err)
	}
	return qnet
}

// restoreLatest restores the latest published version at prec into net
// under the framework's key and returns the restored iteration.
func restoreLatest(f *Framework, prec darknet.Precision, net *darknet.Network) (int, error) {
	pin, err := f.PinPublished()
	if err != nil {
		return 0, err
	}
	defer pin.Release()
	m, err := pin.Open(f.Engine, prec)
	if err != nil {
		return 0, err
	}
	return m.MirrorIn(net)
}

// publishRow publishes versions 1 and 2 of one shape and crashes the
// publish of version 3, a smaller shape that recycles version 1's slot,
// so the sweep crosses the slot's retirement and the in-place relayout
// of its regions. The latest version after recovery is 2 or 3, and it
// restores its fp32 snapshot (and with quant its int8 variant) bit for
// bit.
func publishRow(t *testing.T, name string, quant bool) crashRow {
	convs := []int{2, 2, 1}
	nets := make([]*darknet.Network, len(convs))
	for i, c := range convs {
		nets[i] = sweepNet(t, c, int64(i+1), float32(i+1)*1e-3)
		nets[i].Iteration = i + 1
	}
	var opts []mirror.PublishOption
	if quant {
		opts = append(opts, mirror.WithQuantized())
	}
	var pub *mirror.Store
	publish := func(f *Framework, net *darknet.Network) (err error) {
		_, err = pub.PublishOut(f.Engine, net, opts...)
		return err
	}
	return crashRow{
		name: name,
		prepare: func(f *Framework) (err error) {
			if pub, err = mirror.OpenStore(f.Rom); err != nil {
				return err
			}
			if err := publish(f, nets[0]); err != nil {
				return err
			}
			return publish(f, nets[1])
		},
		write: func(f *Framework) error { return publish(f, nets[2]) },
		check: func(f *Framework, done bool) error {
			latest, err := f.LatestPublished()
			if err != nil || latest != 3 && (done || latest != 2) {
				return fmt.Errorf("latest version %d after recovery, err %v", latest, err)
			}
			want, got := nets[latest-1], sweepNet(t, convs[latest-1], 99, 0)
			restores := []struct {
				prec      darknet.Precision
				got, want *darknet.Network
			}{{darknet.FP32, got, want}, {darknet.Int8, quantize(t, got), quantize(t, want)}}
			if !quant {
				restores = restores[:1]
			}
			for _, r := range restores {
				if iter, err := restoreLatest(f, r.prec, r.got); err != nil || iter != int(latest) || paramHash(r.got) != paramHash(r.want) {
					return fmt.Errorf("%v v%d restores iteration %d, err %v, equal %v", r.prec, latest, iter, err, paramHash(r.got) == paramHash(r.want))
				}
			}
			return nil
		},
	}
}

// publishByReferenceRow publishes the mirror's latest generation right
// after a MirrorSave, over a version 1 that names the mirror's previous
// frame: the one-transaction publish. The latest version after recovery
// is 1 or 2, and it restores the parameters of iteration 10 or 11 bit
// for bit.
func publishByReferenceRow(t *testing.T) crashRow {
	hashes := map[uint64]uint64{}
	return crashRow{
		name: "publish_by_reference",
		prepare: func(f *Framework) error {
			for v := uint64(1); v <= 2; v++ {
				f.Net.Iteration = 9 + int(v)
				if _, err := f.MirrorSave(); err != nil {
					return err
				}
				hashes[v] = paramHash(f.Net)
				if v == 1 {
					if _, err := f.Publish(); err != nil {
						return err
					}
					perturbParams(f.Net, 0.5)
				}
			}
			return nil
		},
		write: func(f *Framework) error {
			_, err := f.Publish()
			return err
		},
		check: func(f *Framework, done bool) error {
			latest, err := f.LatestPublished()
			if err != nil || latest != 2 && (done || latest != 1) {
				return fmt.Errorf("latest version %d after recovery, err %v", latest, err)
			}
			got := sweepNet(t, 1, 99, 0)
			if iter, err := restoreLatest(f, darknet.FP32, got); err != nil || iter != 9+int(latest) || paramHash(got) != hashes[latest] {
				return fmt.Errorf("v%d restores iteration %d, err %v, equal %v", latest, iter, err, paramHash(got) == hashes[latest])
			}
			return nil
		},
	}
}

// recordLayoutRow rewrites the serving layout as a degraded fleet
// replan does, one group over 3 ranges becoming 2 groups over 4, so the
// rewrite outgrows the recorded region. Recovery reads a plan and hosts
// both entirely old or both entirely new, and re-recording the layout
// on record stores nothing.
func recordLayoutRow() crashRow {
	oldLayout := mirror.Layout{
		Plan:  []darknet.ShardRange{{From: 0, To: 2}, {From: 2, To: 3}, {From: 3, To: 5}},
		Hosts: [][]int{{0, 1, 2}},
	}
	newLayout := mirror.Layout{
		Plan:  []darknet.ShardRange{{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 5}},
		Hosts: [][]int{{1, 2, 1, 2}, {2, 1, 2, 1}},
	}
	return crashRow{
		name:    "record_layout",
		prepare: func(f *Framework) error { return f.RecordServingLayout(oldLayout) },
		write:   func(f *Framework) error { return f.RecordServingLayout(newLayout) },
		check: func(f *Framework, done bool) error {
			p, err := mirror.OpenStore(f.Rom)
			if err != nil {
				return err
			}
			got, err := p.Layout()
			if err != nil || !reflect.DeepEqual(got, newLayout) && (done || !reflect.DeepEqual(got, oldLayout)) {
				return fmt.Errorf("layout %v, err %v: neither old %v nor new %v", got, err, oldLayout, newLayout)
			}
			before := f.PM.Stats()
			if err := f.RecordServingLayout(got); err != nil {
				return err
			}
			if st := f.PM.Stats(); st.BytesStored != before.BytesStored || st.Fences != before.Fences {
				return fmt.Errorf("re-recording the recorded layout stored %d bytes, %d fences; want 0",
					st.BytesStored-before.BytesStored, st.Fences-before.Fences)
			}
			return nil
		},
	}
}

// checkRows asserts that the data matrix holds exactly ds, every row
// decrypting under the framework's key.
func checkRows(f *Framework, ds *mnist.Dataset) error {
	if f.Data == nil || f.Data.N() != ds.N {
		return fmt.Errorf("data matrix %v, want %d rows", f.Data, ds.N)
	}
	for i := 0; i < ds.N; i++ {
		img, label, err := f.Data.Row(i)
		if err != nil || !slices.Equal(img, ds.Image(i)) || !slices.Equal(label, ds.OneHot(i)) {
			return fmt.Errorf("row %d differs from the loaded dataset, err %v", i, err)
		}
	}
	return nil
}

// loadDatasetRow loads a dataset into a fresh framework: recovery finds
// no matrix at all (and the dataset loads again) or the whole matrix,
// and the heap cursors end where a clean load leaves them.
func loadDatasetRow() crashRow {
	ds := mnist.Synthetic(sweepRows, 11)
	var cursors cursorLog
	return crashRow{
		name:    "load_dataset",
		prepare: func(*Framework) error { return nil },
		write:   func(f *Framework) error { return f.LoadDataset(ds) },
		check: func(f *Framework, done bool) error {
			if f.Data == nil && !done {
				if err := f.LoadDataset(ds); err != nil {
					return fmt.Errorf("reload after a torn load: %w", err)
				}
			}
			if err := checkRows(f, ds); err != nil {
				return err
			}
			return cursors.check(f, done)
		},
	}
}

// rotateKeyRow rotates the data key of a framework trained to
// iteration 2, with mirroring on or off (the trained model then lives
// only in its publication). Whichever key the recovered framework
// holds, every data row and the latest publication open under it, the
// model is the one of iteration 2, a second Crash + Recover changes
// none of that, and training goes on. A completed rotation changed the
// key.
func rotateKeyRow(t *testing.T, name string, mirrored, lazy bool) crashRow {
	ds := mnist.Synthetic(sweepRows, 11)
	var oldKey []byte
	return crashRow{
		name:      name,
		mirrorOff: !mirrored,
		lazy:      lazy,
		prepare: func(f *Framework) error {
			oldKey = f.Key()
			if err := f.LoadDataset(ds); err != nil {
				return err
			}
			if err := f.Train(context.Background(), StopAt(2)); err != nil || mirrored {
				return err
			}
			_, err := f.Publish()
			return err
		},
		write: func(f *Framework) error {
			_, err := f.RotateKey()
			return err
		},
		check: func(f *Framework, done bool) error {
			if done && bytes.Equal(f.Key(), oldKey) {
				return errors.New("key unchanged after a completed rotation")
			}
			first, err := readRotated(t, f, ds)
			if err != nil {
				return err
			}
			// With mirroring on, a rotation that crashed before its
			// transaction committed has published nothing yet.
			if (first.pubErr != "" || first.pubIter != 2) && !(mirrored && !done && first.pubErr == mirror.ErrNoPublished.Error()) {
				return fmt.Errorf("latest publication restores iteration %d, err %s, want 2", first.pubIter, first.pubErr)
			}
			if mirrored && first.mirrorIter != 2 {
				return fmt.Errorf("mirror holds iteration %d, want 2", first.mirrorIter)
			}
			f.Crash()
			if err := f.Recover(!lazy); err != nil {
				return fmt.Errorf("second Recover: %w", err)
			}
			second, err := readRotated(t, f, ds)
			if err != nil {
				return fmt.Errorf("after a second Crash + Recover: %w", err)
			}
			if !reflect.DeepEqual(first, second) {
				return fmt.Errorf("a second Crash + Recover changed the recovered state %+v to %+v", first, second)
			}
			if err := f.Train(context.Background(), StopAt(3)); err != nil {
				return fmt.Errorf("train after recovery: %w", err)
			}
			if got := f.Iteration(); mirrored && got != 3 {
				return fmt.Errorf("resumed training reached iteration %d, want 3", got)
			}
			return nil
		},
	}
}

// rotatedState is what a key rotation changes, as a recovered framework
// reads it: its key, the iteration in its PM mirror (-1 with none), and
// the latest published version with the iteration it restores or the
// error restoring it gives.
type rotatedState struct {
	key        []byte
	mirrorIter int
	latest     uint64
	pubIter    int
	pubErr     string
}

// readRotated reads f's rotatedState, after checking that every data
// row holds ds under f's key.
func readRotated(t *testing.T, f *Framework, ds *mnist.Dataset) (rotatedState, error) {
	s := rotatedState{key: f.Key(), mirrorIter: -1}
	if err := checkRows(f, ds); err != nil {
		return s, err
	}
	if mirror.Exists(f.Rom) {
		st, err := mirror.OpenStore(f.Rom)
		if err != nil {
			return s, err
		}
		m, err := st.OpenMirror(f.Engine)
		if err != nil {
			return s, err
		}
		s.mirrorIter = m.Iteration()
	}
	var err error
	if s.latest, err = f.LatestPublished(); err != nil {
		return s, err
	}
	if s.pubIter, err = restoreLatest(f, darknet.FP32, sweepNet(t, 1, 99, 0)); err != nil {
		s.pubErr = err.Error()
	}
	return s, nil
}
