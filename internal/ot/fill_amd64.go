//go:build amd64 && !purego

package ot

import (
	"haac/internal/aes128"
	"haac/internal/label"
)

// transposeKernel runs transposeColumns on form f's kernel and reports
// whether it did; it declines below the VAES forms and on chunks of
// fewer words than a register has lanes. With s set it first adds the
// sender's masked columns as addColumns does, but under masks of s (all
// ones at i where s_i is set) rather than branches on it, reading column
// i's bytes at wire[i*colBytes:] as whole words: column kappa-1's last
// word ends up to 7 bytes past the columns, inside wire's capacity.
// Bytes past a column's own land in bits of transfers beyond the chunk.
func transposeKernel(f fillForm, rows []row, cols []uint64, colWords int, wire []byte, colBytes int, s *row) bool {
	if f == fillGo || colWords < f.lanes() {
		return false
	}
	rows, cols = rows[:64*colWords], cols[:kappa*colWords]
	var w *byte
	var m *uint64
	var masks [kappa]uint64
	if s != nil {
		for i := range masks {
			masks[i] = -(s[i/64] >> (i % 64) & 1)
		}
		w, m = &wire[:(kappa-1)*colBytes+8*colWords][0], &masks[0]
	}
	if f == fillZMM {
		transposeZMM(&rows[0], &cols[0], colWords, w, colBytes, m)
	} else {
		transposeYMM(&rows[0], &cols[0], colWords, w, colBytes, m)
	}
	return true
}

//go:noescape
func transposeZMM(rows *row, cols *uint64, colWords int, wire *byte, colBytes int, masks *uint64)

//go:noescape
func transposeYMM(rows *row, cols *uint64, colWords int, wire *byte, colBytes int, masks *uint64)

// hashRowsKernel runs hashRows on form f's kernel and reports whether it
// did; it declines only below the VAES forms.
func hashRowsKernel(f fillForm, dst []label.L, rows []row, t uint64) bool {
	if f == fillGo {
		return false
	}
	if n := len(dst); n > 0 {
		rows = rows[:n]
		if f == fillZMM {
			hashRowsZMM(crCipher.RoundKeys(), &dst[0], &rows[0], n, t)
		} else {
			hashRowsYMM(crCipher.RoundKeys(), &dst[0], &rows[0], n, t)
		}
	}
	return true
}

// hashRowPairsKernel is hashRowsKernel for hashRowPairs.
func hashRowPairsKernel(f fillForm, dst []Pair, rows []row, s row, t uint64) bool {
	if f == fillGo {
		return false
	}
	if n := len(dst); n > 0 {
		rows = rows[:n]
		ds := doubled(s, 0)
		if f == fillZMM {
			hashRowPairsZMM(crCipher.RoundKeys(), &dst[0], &rows[0], n, t, &ds)
		} else {
			hashRowPairsYMM(crCipher.RoundKeys(), &dst[0], &rows[0], n, t, &ds)
		}
	}
	return true
}

//go:noescape
func hashRowsZMM(rk *[aes128.Rounds + 1]aes128.Block, dst *label.L, rows *row, n int, t uint64)

//go:noescape
func hashRowsYMM(rk *[aes128.Rounds + 1]aes128.Block, dst *label.L, rows *row, n int, t uint64)

//go:noescape
func hashRowPairsZMM(rk *[aes128.Rounds + 1]aes128.Block, dst *Pair, rows *row, n int, t uint64, ds *label.L)

//go:noescape
func hashRowPairsYMM(rk *[aes128.Rounds + 1]aes128.Block, dst *Pair, rows *row, n int, t uint64, ds *label.L)

// expandKernel runs p.expand(dst) on the YMM kernel, which both VAES
// forms use, and reports whether it did; it declines only below them.
func expandKernel(f fillForm, p *prgStream, dst []uint64) bool {
	if f == fillGo {
		return false
	}
	if n := len(dst); n > 0 {
		ctrYMM(p.c.RoundKeys(), p.ctr, &dst[0], n)
	}
	p.ctr += uint64(len(dst)+1) / 2
	return true
}

// maskColumnKernel runs maskColumn on the YMM kernel, as expandKernel,
// and reports whether it did. It writes u as whole words, 8·len(t)
// bytes.
func maskColumnKernel(f fillForm, p0, p1 *prgStream, t []uint64, u []byte, r []uint64) bool {
	if f == fillGo {
		return false
	}
	if n := len(t); n > 0 {
		u, r = u[:8*n], r[:n]
		ctrMaskYMM(p0.c.RoundKeys(), p1.c.RoundKeys(), p0.ctr, p1.ctr, &t[0], &u[0], &r[0], n)
	}
	p0.ctr += uint64(len(t)+1) / 2
	p1.ctr += uint64(len(t)+1) / 2
	return true
}

//go:noescape
func ctrYMM(rk *[aes128.Rounds + 1]aes128.Block, ctr uint64, dst *uint64, words int)

//go:noescape
func ctrMaskYMM(rk0, rk1 *[aes128.Rounds + 1]aes128.Block, ctr0, ctr1 uint64, t *uint64, u *byte, r *uint64, words int)
