package main

import (
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// schedIdle is Linux's SCHED_IDLE policy: the thread runs only when nothing
// else on its CPU wants to.
const schedIdle = 5

// keepCPUsBusy starts one idle-priority spinner process per CPU and returns
// the function that stops them and waits for each to end.
//
// The reference box is a small VM whose cores clock down whenever they go
// idle and take seconds to come back: a workload that waits on a link most
// of the time (solo-lowbw) ran its compute up to twice as slow as one that
// keeps the cores busy, and by a different factor on every run. With the
// cores never idle, ten runs of solo-lowbw agree on the median frame to 1%
// where they disagreed by 40%. The spinners are separate processes, so they
// are outside the Go scheduler and outside RUSAGE_SELF, and at SCHED_IDLE
// the kernel preempts them the moment the benchmark has work.
func keepCPUsBusy() (stop func(), err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var spinners []*exec.Cmd
	stop = func() {
		for _, c := range spinners {
			c.Process.Kill()
			c.Wait()
		}
	}
	for i := 0; i < runtime.NumCPU(); i++ {
		c := exec.Command(self, "-spin")
		// The spinners must not outlive a benchmark that is killed.
		c.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := c.Start(); err != nil {
			stop()
			return nil, err
		}
		spinners = append(spinners, c)
	}
	return stop, nil
}

// spinForever is the body of a spinner process.
func spinForever() {
	runtime.GOMAXPROCS(1)
	runtime.LockOSThread()
	// Lowest priority two ways: SCHED_IDLE where the kernel allows it, and
	// nice 19 as the fallback. Both apply to this thread, which is the only
	// one that runs. Neither failing is fatal: the spinner then only
	// competes harder than intended.
	param := struct{ priority int32 }{}
	_, _, _ = syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param)))
	_ = syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19)
	for {
	}
}
