package darknet

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
)

// Darknet-style .cfg parsing. Per the paper's TCB-minimisation strategy
// (§IV), config parsing runs in the untrusted runtime: the parsed config
// carries only public hyper-parameters, and its address is passed to the
// enclave via an ecall to build the enclave model.

// section is one [name] block of key=value pairs.
type section struct {
	name string
	kv   map[string]string
	line int
}

func (s *section) getInt(key string, def int) (int, error) {
	v, ok := s.kv[key]
	if !ok {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("darknet: [%s] line %d: %s=%q is not an integer", s.name, s.line, key, v)
	}
	return n, nil
}

func (s *section) getFloat(key string, def float32) (float32, error) {
	v, ok := s.kv[key]
	if !ok {
		return def, nil
	}
	f, err := strconv.ParseFloat(v, 32)
	if err != nil {
		return 0, fmt.Errorf("darknet: [%s] line %d: %s=%q is not a number", s.name, s.line, key, v)
	}
	return float32(f), nil
}

func parseSections(r io.Reader) ([]*section, error) {
	var out []*section
	var cur *section
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, ";") {
			continue
		}
		if strings.HasPrefix(line, "[") {
			if !strings.HasSuffix(line, "]") {
				return nil, fmt.Errorf("darknet: line %d: malformed section %q", lineNo, line)
			}
			cur = &section{
				name: strings.ToLower(line[1 : len(line)-1]),
				kv:   make(map[string]string),
				line: lineNo,
			}
			out = append(out, cur)
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("darknet: line %d: key-value before any section", lineNo)
		}
		key, val, found := strings.Cut(line, "=")
		if !found {
			return nil, fmt.Errorf("darknet: line %d: expected key=value, got %q", lineNo, line)
		}
		cur.kv[strings.TrimSpace(key)] = strings.TrimSpace(val)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("darknet: scan config: %w", err)
	}
	return out, nil
}

// ParseConfig reads a Darknet .cfg document and builds the network with
// weights initialised from rng. A nil rng skips the random init and
// leaves every weight zero — for a model built only to be overwritten
// from PM (recovery, serving replicas and shards), where initialising
// 64 MiB of weights costs more than restoring them. rng is used for
// nothing else.
func ParseConfig(r io.Reader, rng *rand.Rand) (*Network, error) {
	secs, err := parseSections(r)
	if err != nil {
		return nil, err
	}
	if len(secs) == 0 || (secs[0].name != "net" && secs[0].name != "network") {
		return nil, fmt.Errorf("darknet: config must start with a [net] section")
	}
	net := secs[0]
	cfg := DefaultNetConfig()
	if cfg.Batch, err = net.getInt("batch", cfg.Batch); err != nil {
		return nil, err
	}
	if cfg.LearningRate, err = net.getFloat("learning_rate", cfg.LearningRate); err != nil {
		return nil, err
	}
	if cfg.Momentum, err = net.getFloat("momentum", cfg.Momentum); err != nil {
		return nil, err
	}
	if cfg.Decay, err = net.getFloat("decay", cfg.Decay); err != nil {
		return nil, err
	}
	if cfg.Channels, err = net.getInt("channels", cfg.Channels); err != nil {
		return nil, err
	}
	if cfg.Height, err = net.getInt("height", cfg.Height); err != nil {
		return nil, err
	}
	if cfg.Width, err = net.getInt("width", cfg.Width); err != nil {
		return nil, err
	}

	b := NewBuilder(cfg, rng)
	for _, s := range secs[1:] {
		switch s.name {
		case "convolutional", "conv":
			cc := ConvConfig{}
			if cc.Filters, err = s.getInt("filters", 1); err != nil {
				return nil, err
			}
			if cc.Size, err = s.getInt("size", 3); err != nil {
				return nil, err
			}
			if cc.Stride, err = s.getInt("stride", 1); err != nil {
				return nil, err
			}
			if cc.Pad, err = s.getInt("pad", 0); err != nil {
				return nil, err
			}
			bn, err := s.getInt("batch_normalize", 0)
			if err != nil {
				return nil, err
			}
			cc.BatchNorm = bn != 0
			actName := s.kv["activation"]
			if actName == "" {
				actName = "leaky"
			}
			if cc.Activation, err = ParseActivation(actName); err != nil {
				return nil, err
			}
			b.Conv(cc)
		case "maxpool":
			size, err := s.getInt("size", 2)
			if err != nil {
				return nil, err
			}
			stride, err := s.getInt("stride", size)
			if err != nil {
				return nil, err
			}
			b.MaxPool(size, stride)
		case "connected":
			outputs, err := s.getInt("output", 1)
			if err != nil {
				return nil, err
			}
			actName := s.kv["activation"]
			if actName == "" {
				actName = "linear"
			}
			act, err := ParseActivation(actName)
			if err != nil {
				return nil, err
			}
			b.Connected(outputs, act)
		case "softmax":
			b.Softmax()
		default:
			return nil, fmt.Errorf("darknet: line %d: unsupported layer type [%s]", s.line, s.name)
		}
	}
	return b.Build()
}

// MNISTConfig returns the .cfg text of an n-conv-layer LReLU CNN for
// 28x28 grayscale 10-class inputs — the model family used throughout
// the paper's evaluation (5 layers in Figs. 8-9, 12 in Fig. 10 and the
// inference experiment).
func MNISTConfig(convLayers, filters, batch int) string {
	var sb strings.Builder
	// Plain SGD with learning rate 0.1, per §VI.
	fmt.Fprintf(&sb, "[net]\nbatch=%d\nlearning_rate=0.1\nchannels=1\nheight=28\nwidth=28\n\n", batch)
	for i := 0; i < convLayers; i++ {
		fmt.Fprintf(&sb, "[convolutional]\nfilters=%d\nsize=3\nstride=1\npad=1\nactivation=leaky\n\n", filters)
	}
	sb.WriteString("[maxpool]\nsize=2\nstride=2\n\n")
	sb.WriteString("[connected]\noutput=10\nactivation=linear\n\n")
	sb.WriteString("[softmax]\n")
	return sb.String()
}
