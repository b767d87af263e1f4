package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sync/atomic"
	"syscall"
	"time"
)

// subhostEnv marks the re-executed child.
const subhostEnv = "GOVENTS_BENCH_SUBHOST"

// host is the parent's handle on the sub-host process.
type host struct {
	cmd     *exec.Cmd
	in      io.WriteCloser
	enc     *json.Encoder
	replies *json.Decoder
	errPath string // the child's stderr, kept only when it said something

	phase     atomic.Int32 // counts of other phases are ignored
	completed atomic.Int64
	progress  chan struct{} // cap 1: completed moved
	dead      chan struct{} // closed when the child's stream ends
	exited    chan struct{} // closed when the process has been reaped
}

// startHost re-executes this program as the sub-host. The child ends
// when its stdin does, and the kernel kills it if the parent dies
// first, so it cannot outlive the command either way.
func startHost(outDir, name string) (*host, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	replyR, replyW, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	streamR, streamW, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	errPath := filepath.Join(outDir, fmt.Sprintf("subhost-%s-%d.log", name, os.Getpid()))
	errFile, err := os.Create(errPath)
	if err != nil {
		return nil, err
	}
	defer errFile.Close()
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), subhostEnv+"=1")
	cmd.Stdout = errFile
	cmd.Stderr = errFile
	cmd.ExtraFiles = []*os.File{replyW, streamW} // fd 3, fd 4
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	if _, sub, ok := pinnedCPUs(); ok {
		err = startOn(cmd, sub)
	} else {
		err = cmd.Start()
	}
	if err != nil {
		return nil, fmt.Errorf("start sub-host: %w", err)
	}
	replyW.Close()
	streamW.Close()
	h := &host{
		cmd: cmd, in: in, enc: json.NewEncoder(in), replies: json.NewDecoder(replyR), errPath: errPath,
		progress: make(chan struct{}, 1), dead: make(chan struct{}), exited: make(chan struct{}),
	}
	go h.readStream(streamR)
	go func() {
		_ = cmd.Wait() // the exit status is not the verdict; the ledger is
		replyR.Close()
		close(h.exited)
	}()
	return h, nil
}

// readStream follows the child's completed counts: records of a 4-byte
// phase and an 8-byte count.
func (h *host) readStream(r *os.File) {
	defer close(h.dead)
	defer r.Close()
	var buf [12]byte
	for {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return
		}
		if int32(binary.LittleEndian.Uint32(buf[:4])) != h.phase.Load() {
			continue
		}
		h.completed.Store(int64(binary.LittleEndian.Uint64(buf[4:])))
		select {
		case h.progress <- struct{}{}:
		default:
		}
	}
}

// call sends one request and waits for its reply, the child's death or
// the timeout.
func (h *host) call(req *request, timeout time.Duration) (*reply, error) {
	if err := h.enc.Encode(req); err != nil {
		return nil, fmt.Errorf("sub-host %s: %w", req.Op, err)
	}
	type result struct {
		rep reply
		err error
	}
	ch := make(chan result, 1)
	go func() {
		var r result
		r.err = h.replies.Decode(&r.rep)
		ch <- r
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			return nil, fmt.Errorf("sub-host %s: %w", req.Op, r.err)
		}
		if r.rep.Err != "" {
			return nil, fmt.Errorf("sub-host %s: %s", req.Op, r.rep.Err)
		}
		return &r.rep, nil
	case <-h.dead:
		return nil, fmt.Errorf("sub-host %s: %w", req.Op, errHostDied)
	case <-time.After(timeout):
		return nil, fmt.Errorf("sub-host %s: no reply in %v", req.Op, timeout)
	}
}

var errHostDied = errors.New("sub-host died")

// stop ends the child: politely when it still answers, by signal
// otherwise, and waits until it has been reaped.
func (h *host) stop(polite bool) {
	if polite {
		_, _ = h.call(&request{Op: "close"}, 10*time.Second) // a failure falls through to the kill below
	}
	h.in.Close()
	select {
	case <-h.exited:
	case <-time.After(3 * time.Second):
		_ = h.cmd.Process.Kill() // already gone is fine
		<-h.exited
	}
	if st, err := os.Stat(h.errPath); err == nil && st.Size() == 0 {
		os.Remove(h.errPath)
	}
}

// dumpAndQuit is the stall path: the parent's goroutines go to a file,
// and SIGQUIT makes the Go runtime of the child print its own to the
// child's log before it exits. A child that cannot even do that is killed
// a second later, which also frees a Publish blocked on its full socket.
func (h *host) dumpAndQuit(outDir, name string) {
	path := filepath.Join(outDir, fmt.Sprintf("stall-%s-parent-%d.txt", name, os.Getpid()))
	if f, err := os.Create(path); err == nil {
		_ = pprof.Lookup("goroutine").WriteTo(f, 2)
		f.Close()
	}
	_ = h.cmd.Process.Signal(syscall.SIGQUIT) // already gone is fine
	time.AfterFunc(time.Second, func() { _ = h.cmd.Process.Kill() })
}
