//go:build !linux

package main

import (
	"os/exec"
	"runtime/metrics"
	"time"
)

// sleep blocks for d.
func sleep(d time.Duration) { time.Sleep(d) }

// processCPU estimates the CPU time this process has used from the Go
// runtime's accounting, which advances when a GC cycle ends.
func processCPU() time.Duration {
	ms := []metrics.Sample{{Name: "/cpu/classes/total:cpu-seconds"}, {Name: "/cpu/classes/idle:cpu-seconds"}}
	metrics.Read(ms)
	return time.Duration((ms[0].Value.Float64() - ms[1].Value.Float64()) * float64(time.Second))
}

// raiseThread leaves the thread at the normal priority.
func raiseThread() bool { return false }

func lowerThread() {}

// startFavored starts cmd at the normal priority.
func startFavored(cmd *exec.Cmd) error { return cmd.Start() }
