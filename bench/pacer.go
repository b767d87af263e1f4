package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// pacer holds the open-loop schedule. It sleeps on a timerfd, read
// through the runtime's network poller, until shortly before the due
// instant and spins the rest. The sleep matters as much as the spin:
// with one P, a goroutine that only yields is always runnable, the
// scheduler never falls through to the poller, and the publisher reads
// its acknowledgements every 10 ms (the monitor thread's fallback poll)
// instead of when they arrive, so a quarter of the frames get
// retransmitted. Parked on the timerfd, the P is idle in epoll and takes
// the acknowledgements as they come.
type pacer struct {
	f  *os.File
	fd uintptr // f.Fd() would put the descriptor back into blocking mode
}

// spinNs is how long before the due instant the pacer stops sleeping:
// longer than the poller takes to wake the goroutine, short against the
// interval between events.
const spinNs = 40_000

func newPacer() (*pacer, error) {
	const clockRealtime, nonblockCloexec = 0, 0x800 | 0x80000
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockRealtime, nonblockCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

func (p *pacer) close() { p.f.Close() }

// until returns at wall-clock instant dueNs (UnixNano), or at once if
// it has passed, and reports the instant it returned at.
func (p *pacer) until(dueNs int64) (nowNs int64) {
	nowNs = time.Now().UnixNano()
	if wake := dueNs - spinNs; wake > nowNs {
		const absTime = 1
		spec := [4]int64{0, 0, wake / 1e9, wake % 1e9} // itimerspec{interval, value}
		if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, absTime,
			uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno == 0 {
			var expirations [8]byte
			_, _ = p.f.Read(expirations[:]) // an error only means spinning the whole wait
		}
		nowNs = time.Now().UnixNano()
	}
	for nowNs < dueNs {
		runtime.Gosched()
		nowNs = time.Now().UnixNano()
	}
	return nowNs
}
