//go:build armbe || arm64be || m68k || mips || mips64 || mips64p32 || ppc || ppc64 || s390 || s390x || shbe || sparc || sparc64

package engine

// hostLittleEndian is false on big-endian hosts: SealFloatsWith and
// OpenFloatsWith keep the explicit little-endian conversion loop.
const hostLittleEndian = false
