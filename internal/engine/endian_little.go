//go:build !(armbe || arm64be || m68k || mips || mips64 || mips64p32 || ppc || ppc64 || s390 || s390x || shbe || sparc || sparc64)

package engine

// hostLittleEndian reports that a []float32's memory is already the
// little-endian wire encoding, so SealFloatsWith/OpenFloatsWith work on
// it directly.
const hostLittleEndian = true
