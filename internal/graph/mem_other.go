//go:build !linux

package graph

// totalMemory reports 0 (unknown) on platforms without sysinfo(2), which
// leaves RandomRegular with only its static size limits there.
func totalMemory() uint64 { return 0 }
