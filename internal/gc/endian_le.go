//go:build !(armbe || arm64be || m68k || mips || mips64 || mips64p32 || ppc || ppc64 || s390 || s390x || shbe || sparc || sparc64)

package gc

// MaterialsToWire puts tables into wire byte order in place, after which
// MaterialBytes(tables) is their encoding and their Material values are
// spent. A Material in little-endian memory already is its wire form.
func MaterialsToWire(tables []Material) {}

// MaterialsFromWire turns tables whose memory (MaterialBytes) was filled
// with wire bytes into Material values, in place.
func MaterialsFromWire(tables []Material) {}
