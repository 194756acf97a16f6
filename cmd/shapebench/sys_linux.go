package main

import (
	"os/exec"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// sleep blocks the calling thread for d with nanosleep. Go's timers wake a
// goroutine up to a millisecond late when the process is otherwise idle,
// which would show up as load-generator lag on every open-loop op.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// processCPU returns the CPU time this process has used, in user and
// kernel mode.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Scheduling policies of sched_setscheduler(2).
const (
	schedOther = 0
	schedFIFO  = 1
)

func setScheduler(policy, priority int) syscall.Errno {
	param := struct{ priority int32 }{int32(priority)}
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, uintptr(policy), uintptr(unsafe.Pointer(&param)))
	return errno
}

// raiseThread moves the calling thread, which must be locked to its
// goroutine, to the lowest real-time priority, and reports whether the OS
// permitted it. Only that thread is raised: the Go runtime starts new
// threads from a thread of its own, never from a locked one, and its
// threads at equal real-time priority would not share a CPU.
func raiseThread() bool { return setScheduler(schedFIFO, 1) == 0 }

// lowerThread returns the calling thread to the normal policy, which a
// thread may always do.
func lowerThread() { setScheduler(schedOther, 0) }

// favoredNice is the nice value of the load-generator process.
const favoredNice = -10

// startFavored starts cmd at nice favoredNice where the OS permits it, so
// that the load generator turns a reply into its next request without
// waiting behind the server for a CPU, as a client on its own machine
// would not. A child takes the nice value of the thread that forks it, and
// on Linux setpriority with who 0 sets the calling thread's alone, so only
// this thread is raised, and only while it forks.
func startFavored(cmd *exec.Cmd) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	old, err := syscall.Getpriority(syscall.PRIO_PROCESS, 0)
	if err != nil {
		return cmd.Start()
	}
	// The raw system call returns 20 minus the nice value.
	nice := 20 - old
	if favoredNice >= nice || syscall.Setpriority(syscall.PRIO_PROCESS, 0, favoredNice) != nil {
		return cmd.Start()
	}
	err = cmd.Start()
	syscall.Setpriority(syscall.PRIO_PROCESS, 0, nice) // raising the nice value is always permitted
	return err
}
