package ot

import "haac/internal/aes128"

// The fill kernels. On the two VAES tiers internal/aes128 detects
// (vaes512 and vaes) the chunk cores run their column transpose, their
// column PRG and their row hash as vector kernels (fill_amd64.s): the
// transpose and the hash with eight 64-bit lanes per ZMM register on
// vaes512 and four per YMM register on vaes, the PRG in YMM on both (a
// ZMM PRG measured no faster). Every other host, and -tags purego, runs
// the Go code in iknp.go and transpose.go, which is also the reference
// the kernels are tested against. The form follows the AES tier and
// cannot be chosen: every form computes the same bytes.

// fillForm names a form of the fill kernels.
type fillForm uint8

const (
	fillGo  fillForm = iota // the Go code alone
	fillYMM                 // four lanes per register (the vaes tier)
	fillZMM                 // eight lanes per register (the vaes512 tier)
)

// liveFill is the form the chunk cores run, fixed by the AES tier at
// start-up.
var liveFill = fillFormOf(aes128.Backend())

func fillFormOf(backend string) fillForm {
	switch backend {
	case "vaes512":
		return fillZMM
	case "vaes":
		return fillYMM
	}
	return fillGo
}

// lanes is the number of 64-bit words one of the form's registers holds.
func (f fillForm) lanes() int {
	switch f {
	case fillZMM:
		return 8
	case fillYMM:
		return 4
	}
	return 0
}
