//go:build !linux

package main

import (
	"errors"
	"time"
)

func threadCPU() (time.Duration, error) {
	return 0, errors.New("the host speed probe needs Linux's per-thread CPU clock")
}
