package main

import (
	"syscall"
	"time"
	"unsafe"
)

// threadCPU returns the calling OS thread's CPU time (CLOCK_THREAD_CPUTIME_ID),
// which excludes time the thread spends waiting for a CPU.
func threadCPU() (time.Duration, error) {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID,
		uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, e
	}
	return time.Duration(ts.Nano()), nil
}
