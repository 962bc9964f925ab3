//go:build !amd64 || purego

package ot

import "haac/internal/label"

// No vector form in this build: the chunk cores run the Go code.
func transposeKernel(fillForm, []row, []uint64, int, []byte, int, *row) bool { return false }
func hashRowsKernel(fillForm, []label.L, []row, uint64) bool                 { return false }
func hashRowPairsKernel(fillForm, []Pair, []row, row, uint64) bool           { return false }
func expandKernel(fillForm, *prgStream, []uint64) bool                       { return false }
func maskColumnKernel(fillForm, *prgStream, *prgStream, []uint64, []byte, []uint64) bool {
	return false
}
