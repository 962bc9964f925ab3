// Package softfloat is the bit-exact plain-Go reference model for the
// IEEE-754 binary32 circuits in internal/builder. GradDesc — the paper's
// "true floating point" benchmark — runs these operations as Boolean
// logic; this package defines the exact arithmetic those circuits
// implement, so circuit outputs can be tested for equality rather than
// approximate closeness.
//
// Semantics (simplified relative to full IEEE-754, as is standard for GC
// float libraries):
//
//   - flush-to-zero: subnormal inputs and outputs are treated as zero;
//   - truncation ("round toward zero") with 3 guard bits on addition;
//   - overflow saturates to infinity (exponent 255, mantissa 0);
//   - NaNs and infinities are not propagated specially — inputs are
//     assumed finite, which holds for the GradDesc workload.
//
// The circuit builder transcribes Add and Mul below line by line; any
// change here must be mirrored in internal/builder/float.go.
package softfloat

import "math"

// unpack splits x into sign, biased exponent and mantissa fields.
func unpack(x uint32) (s uint32, e int32, m uint32) {
	return x >> 31, int32(x >> 23 & 0xff), x & 0x7fffff
}

// pack assembles a float from sign, biased exponent and 23-bit mantissa.
func pack(s uint32, e int32, m uint32) uint32 {
	return s<<31 | uint32(e&0xff)<<23 | m&0x7fffff
}

// Mul returns the product of two binary32 values under this package's
// semantics, operating on raw bit patterns.
func Mul(a, b uint32) uint32 {
	sa, ea, ma := unpack(a)
	sb, eb, mb := unpack(b)
	s := sa ^ sb

	if ea == 0 || eb == 0 { // FTZ: zero (or subnormal) operand
		return pack(s, 0, 0)
	}
	pa := uint64(1<<23 | ma)
	pb := uint64(1<<23 | mb)
	p := pa * pb // 48-bit product, MSB at bit 47 or 46

	norm := int32(p >> 47 & 1)
	var mant uint32
	if norm == 1 {
		mant = uint32(p >> 24 & 0x7fffff)
	} else {
		mant = uint32(p >> 23 & 0x7fffff)
	}
	e := ea + eb - 127 + norm
	switch {
	case e <= 0:
		return pack(s, 0, 0)
	case e >= 255:
		return pack(s, 255, 0)
	}
	return pack(s, e, mant)
}

// Add returns the sum of two binary32 values under this package's
// semantics, operating on raw bit patterns.
func Add(a, b uint32) uint32 {
	sa, ea, ma := unpack(a)
	sb, eb, mb := unpack(b)

	// Order by magnitude: the comparison key is the raw exponent+mantissa.
	magA := uint32(ea)<<23 | ma
	magB := uint32(eb)<<23 | mb
	if magA < magB {
		sa, ea, ma, sb, eb, mb = sb, eb, mb, sa, ea, ma
		magA, magB = magB, magA
	}

	// 27-bit significands: hidden bit + 23 mantissa bits + 3 guard bits.
	m1 := sig27(ea, ma)
	m2 := sig27(eb, mb)

	// Align the smaller operand. Shifts >= 27 drain to zero; clamping at
	// 31 keeps the circuit's shift amount at 5 bits.
	d := ea - eb
	if d > 31 {
		d = 31
	}
	m2 >>= uint(d)

	var r uint32 // 28-bit result significand
	if sa != sb {
		r = m1 - m2
	} else {
		r = m1 + m2
	}

	if r == 0 {
		return pack(0, 0, 0) // exact cancellation: +0
	}
	lz := leadingZeros28(r)
	rn := r << uint(lz) // MSB now at bit 27
	e := ea + 1 - int32(lz)
	switch {
	case e <= 0:
		return pack(sa, 0, 0) // FTZ underflow
	case e >= 255:
		return pack(sa, 255, 0)
	}
	mant := rn >> 4 & 0x7fffff // drop hidden bit (27) and 4 low bits
	return pack(sa, e, mant)
}

// sig27 expands a (possibly zero) operand to the 27-bit significand used
// by Add: (hidden|mant) << 3, or 0 when the operand is zero under FTZ.
func sig27(e int32, m uint32) uint32 {
	if e == 0 {
		return 0
	}
	return (1<<23 | m) << 3
}

func leadingZeros28(x uint32) int32 {
	n := int32(0)
	for i := 27; i >= 0; i-- {
		if x>>uint(i)&1 == 1 {
			break
		}
		n++
	}
	return n
}

// Sub returns a - b.
func Sub(a, b uint32) uint32 { return Add(a, b^0x80000000) }

// FromFloat32 converts a native float32 into this package's domain,
// flushing subnormals to zero.
func FromFloat32(f float32) uint32 {
	b := math.Float32bits(f)
	if b>>23&0xff == 0 {
		return b & 0x80000000
	}
	return b
}
