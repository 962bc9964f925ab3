//go:build !unix

package main

// keepFreedMemory is the re-exec of madvise_unix.go; elsewhere the
// benchmark runs with the runtime's default.
func keepFreedMemory() {}
