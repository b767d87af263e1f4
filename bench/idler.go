package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// The idler is a third, idle-priority process that spins on both CPUs
// for the length of the command. In a virtual machine a CPU with nothing
// to run halts, and waking it costs tens of microseconds of the host's
// time, more or less from run to run with the host's halt polling; at
// the open-loop rates the sub-host's CPU halts between any two events,
// and that wake-up was the largest part of the latency's spread. The
// loops run in the SCHED_IDLE class: they get a CPU only when neither
// measured process wants it and lose it the moment one does, and their
// CPU time is in nobody's getrusage.
const idlerEnv = "GOVENTS_BENCH_IDLER"

func idlerMain() int {
	pub, sub, ok := pinnedCPUs()
	if !ok {
		return 1
	}
	for _, cpu := range []int{pub, sub} {
		go func() {
			runtime.LockOSThread()
			pinThread(cpu)
			var param [4]byte // struct sched_param{0}
			const schedIdle = 5
			syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param)))
			for {
			}
		}()
	}
	_, _ = io.Copy(io.Discard, os.Stdin) // returns when the parent is gone
	return 0
}

// startIdler returns a function that stops the idler and waits for it.
// An unpinned run has no CPU of its own to keep awake and starts none.
func startIdler() (stop func(), err error) {
	pub, sub, ok := pinnedCPUs()
	if !ok {
		return func() {}, nil
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), idlerEnv+"=1")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	if err := startOn(cmd, pub, sub); err != nil {
		return nil, fmt.Errorf("start idler: %w", err)
	}
	return func() {
		in.Close()
		_ = cmd.Process.Kill() // its loops never end by themselves
		_ = cmd.Wait()
	}, nil
}
