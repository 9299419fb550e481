// Package cpuid holds the one set of CPUID probes that pick the amd64
// assembly paths: darknet's GEMM kernel tier and the engine's AES-GCM
// kernel. It has no code on other architectures or under the purego
// build tag, where nothing runs assembly.
package cpuid
