//go:build linux

package graph

import "syscall"

// totalMemory returns the machine's physical memory in bytes, or 0 when
// it cannot be read.
func totalMemory() uint64 {
	var si syscall.Sysinfo_t
	if syscall.Sysinfo(&si) != nil {
		return 0
	}
	return uint64(si.Totalram) * uint64(si.Unit)
}
