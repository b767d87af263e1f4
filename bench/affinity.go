package main

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// The two processes run on one CPU each, the first two this process may
// run on, and each is pinned before its Go runtime starts, so the
// runtime sizes itself (GOMAXPROCS, dispatch lanes) for the one CPU it
// has, as it would in a one-CPU container. Unpinned, the kernel migrates
// the sub-host's threads onto the CPU the pacing thread spins on, and
// latency and capacity swing with where they happen to land; pinned
// after start, the runtime schedules two Ps onto one CPU and the extra
// thread wake-ups make the latency bimodal.

type cpuMask [16]uint64 // 1024 CPUs

// allowedCPUs lists the CPUs the calling thread may run on.
func allowedCPUs() []int {
	var m cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return nil
	}
	var cpus []int
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus
}

// pinThread moves the calling thread (lock it first) onto the given
// CPUs.
func pinThread(cpus ...int) bool {
	var m cpuMask
	for _, c := range cpus {
		m[c/64] |= 1 << (c % 64)
	}
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	return errno == 0
}

// pinnedEnv marks a process that was started on its CPU; its value is
// "publisher CPU,sub-host CPU".
const pinnedEnv = "GOVENTS_BENCH_PINNED"

// pinnedCPUs parses pinnedEnv; ok is false in an unpinned run.
func pinnedCPUs() (pub, sub int, ok bool) {
	a, b, found := strings.Cut(os.Getenv(pinnedEnv), ",")
	pub, err1 := strconv.Atoi(a)
	sub, err2 := strconv.Atoi(b)
	return pub, sub, found && err1 == nil && err2 == nil
}

// startOn starts cmd on the given CPUs: a child inherits the mask of the
// thread that forks it.
func startOn(cmd *exec.Cmd, cpus ...int) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	mine := allowedCPUs()
	pinThread(cpus...)
	defer pinThread(mine...)
	return cmd.Start()
}

// nproc is the machine's CPU count, whatever this process is pinned to.
func nproc() int {
	b, err := os.ReadFile("/sys/devices/system/cpu/online")
	if err != nil {
		return runtime.NumCPU()
	}
	n := 0
	for _, part := range strings.Split(strings.TrimSpace(string(b)), ",") {
		lo, hi, ok := strings.Cut(part, "-")
		a, err1 := strconv.Atoi(lo)
		z := a
		var err2 error
		if ok {
			z, err2 = strconv.Atoi(hi)
		}
		if err1 != nil || err2 != nil {
			return runtime.NumCPU()
		}
		n += z - a + 1
	}
	return n
}
