//go:build unix

package main

import (
	"os"
	"strings"
	"syscall"
)

// keepFreedMemory re-executes the benchmark with GODEBUG=madvdontneed=0
// unless the caller already chose a value. Go's default hands freed
// heap back with MADV_DONTNEED, and every repetition of an
// allocation-heavy call (compiler.Compile of an 11M-gate program) then
// faults it in again: on this VM that was a third of accel.vip's time
// and moved it by ±10% from run to run. MADV_FREE lets the process
// reuse the pages, which keeps the hypervisor's page-fault cost out of
// repeated timings. The setting cannot be made from inside a running
// process, hence the exec; it replaces the image and starts no child.
func keepFreedMemory() {
	if strings.Contains(os.Getenv("GODEBUG"), "madvdontneed") {
		return
	}
	exe, err := os.Executable()
	if err != nil {
		return
	}
	godebug := "madvdontneed=0"
	if v := os.Getenv("GODEBUG"); v != "" {
		godebug = v + "," + godebug
	}
	// On failure Exec returns and the benchmark runs with the default.
	_ = syscall.Exec(exe, os.Args, append(os.Environ(), "GODEBUG="+godebug))
}
