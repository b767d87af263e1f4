package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"govents"
)

// runner drives one workload: it is the load generator and hosts the
// publisher Domain; the subscriber Domains live in the sub-host.
type runner struct {
	w      *workload
	seed   int64
	traced bool
	outDir string
	dir    string // durability root of this set-up
	pad    []byte

	host    *host
	pub     *govents.Domain
	pubSpan *spanTransport // traced runs only
	hooks   traceLog
	spans   []publishSpan // traced runs only

	phase     int32
	attempted int64 // deliveries the oracle demanded, all phases
	failed    int64
	aborted   string // why the workload was abandoned, if it was
}

// phaseResult is one phase as both processes saw it.
type phaseResult struct {
	Name      string
	Seconds   float64
	Published int64
	Errors    int64 // Publish calls that returned an error
	Late      []int64
	CallNs    []int64
	Report    *phaseReport
	PubUse    usage
	WireBytes int64    // bytes that crossed the loopback interface
	Boundary  boundary // publisher-side transport spans (traced)
}

// setUp starts the sub-host, opens the publisher, waits for every
// subscription advertisement and warms the path up. Its duration is
// setup_s; the warm-up is inside on purpose, so that work moved into
// set-up shows and the metric does not hang on a few milliseconds.
func (r *runner) setUp() (seconds float64, err error) {
	start := time.Now()
	r.dir, err = os.MkdirTemp(r.outDir, "state-")
	if err != nil {
		return 0, err
	}
	if r.host, err = startHost(r.outDir, r.w.Name); err != nil {
		return 0, err
	}
	var tr govents.Transport
	if tr, err = govents.ListenTCP("127.0.0.1:0"); err != nil {
		return 0, err
	}
	if r.traced {
		r.pubSpan = &spanTransport{Transport: tr}
		tr = r.pubSpan
	}
	r.pub, err = govents.Open(bg, tr.Addr(), r.w.domainOptions(tr, filepath.Join(r.dir, "pub"), r.traced, r.hooks.hook)...)
	if err != nil {
		return 0, err
	}
	rep, err := r.host.call(&request{Op: "open", Workload: r.w.Name, Seed: r.seed, Traced: r.traced,
		PubAddr: tr.Addr(), Dir: r.dir}, 60*time.Second)
	if err != nil {
		return 0, err
	}
	if err := r.pub.SetPeers(append([]string{tr.Addr()}, rep.Addrs...)...); err != nil {
		return 0, err
	}
	deadline := time.Now().Add(120 * time.Second)
	for r.pub.RemoteSubscriptionCount() < r.w.numSubs() {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("only %d of %d subscriptions advertised", r.pub.RemoteSubscriptionCount(), r.w.numSubs())
		}
		select {
		case <-r.host.dead:
			return 0, errHostDied
		case <-time.After(time.Millisecond):
		}
	}
	if _, err := r.openLoop("warmup", warmupSeconds, false); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}

// tearDown stops the sub-host, closes the publisher and removes the
// durability directories. After an abort nothing is asked politely.
func (r *runner) tearDown() {
	if r.host != nil {
		r.host.stop(r.aborted == "")
		r.host = nil
	}
	if r.pub != nil {
		ctx, cancel := context.WithTimeout(bg, 5*time.Second)
		_ = r.pub.Close(ctx) // best effort: a stalled substrate may not close
		cancel()
		r.pub = nil
	}
	if r.dir != "" {
		os.RemoveAll(r.dir)
		r.dir = ""
	}
}

// phase is one running phase: what the generator, the watchdog and the
// closing accounts share.
type phase struct {
	res       *phaseResult
	sched     schedule
	t0        int64 // wall-clock instant the generator starts at
	published atomic.Int64
	abort     atomic.Bool
	stopWatch func()

	before     usage
	beforeWire int64
	beforeSpan boundary
}

// beginPhase announces a phase to the sub-host, starts its watchdog and
// takes the opening readings.
func (r *runner) beginPhase(name string, seconds float64, latency bool, maxEvents, hint int64) (*phase, error) {
	r.phase++
	p := &phase{
		res:   &phaseResult{Name: name, Seconds: seconds},
		sched: newSchedule(r.seed, r.phase, r.w.Keys),
		t0:    time.Now().Add(20 * time.Millisecond).UnixNano(),
	}
	r.host.phase.Store(r.phase)
	r.host.completed.Store(0)
	if _, err := r.host.call(&request{Op: "phase", Phase: r.phase, T0: p.t0, Latency: latency,
		MaxEvents: maxEvents, Hint: hint}, 30*time.Second); err != nil {
		return nil, err
	}
	p.stopWatch = r.watch(p)
	p.before, p.beforeWire, p.beforeSpan = readUsage(), loopbackBytes(), r.boundary()
	return p, nil
}

// watch is the stall watchdog of one phase: it aborts the workload when
// the sub-host dies or nothing was delivered for stallAfter while
// events were outstanding. It returns a stop function.
func (r *runner) watch(p *phase) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		last, lastMove := int64(-1), time.Now()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-r.host.dead:
				r.aborted = "sub-host died"
				p.abort.Store(true)
				return
			case <-tick.C:
			}
			c := r.host.completed.Load()
			if c != last || p.published.Load() <= c {
				last, lastMove = c, time.Now()
				continue
			}
			if time.Since(lastMove).Seconds() > stallAfter {
				r.aborted = fmt.Sprintf("no delivery progress for %.0f s (%d published, %d complete)", stallAfter, p.published.Load(), c)
				r.host.dumpAndQuit(r.outDir, r.w.Name)
				p.abort.Store(true)
				return
			}
		}
	}()
	return func() { close(done); <-finished }
}

// publish sends event seq of the phase's schedule and times the call.
func (r *runner) publish(p *phase, seq, dueNs int64) {
	ev := r.w.newEvent(p.sched.body(seq, dueNs), r.pad)
	p.published.Store(seq + 1)
	t0 := time.Now().UnixNano()
	if err := r.pub.Publish(bg, ev); err != nil {
		p.res.Errors++
	}
	call := time.Now().UnixNano() - t0
	p.res.CallNs = append(p.res.CallNs, call)
	if r.traced {
		r.spans = append(r.spans, publishSpan{Phase: p.res.Name, Seq: seq, StartNs: t0, DurNs: call})
	}
}

// openLoop publishes at the workload's fixed rate for the given time,
// on a schedule that does not slow when the system does. One goroutine
// paces (see pacer); every event is stamped with the instant it was due,
// so a stall is charged to the events it delayed.
func (r *runner) openLoop(name string, seconds float64, latency bool) (*phaseResult, error) {
	n := int64(float64(r.w.LoRate) * seconds)
	pace, err := newPacer()
	if err != nil {
		return nil, err
	}
	defer pace.close()
	p, err := r.beginPhase(name, seconds, latency, n, n)
	if err != nil {
		return nil, err
	}
	p.res.Late, p.res.CallNs = make([]int64, 0, n), make([]int64, 0, n)
	for seq := int64(0); seq < n && !p.abort.Load(); seq++ {
		due := p.t0 + seq*int64(time.Second)/int64(r.w.LoRate)
		p.res.Late = append(p.res.Late, pace.until(due)-due)
		r.publish(p, seq, due)
	}
	return r.endPhase(p)
}

// closedLoop publishes as fast as deliveries allow: at most Window
// events are published but not yet delivered, so the backlog is bounded
// and the delivered rate is the sustainable one. The generator blocks
// on the sub-host's completed count; it does not spin.
func (r *runner) closedLoop(name string, seconds float64) (*phaseResult, error) {
	maxEvents := int64(100_000 * seconds)
	p, err := r.beginPhase(name, seconds, false, maxEvents, int64(4*float64(r.w.LoRate)*seconds))
	if err != nil {
		return nil, err
	}
	end := p.t0 + int64(seconds*float64(time.Second))
	time.Sleep(time.Until(time.Unix(0, p.t0)))
	for seq := int64(0); seq < maxEvents && !p.abort.Load() && time.Now().UnixNano() < end; {
		if seq-r.host.completed.Load() >= int64(r.w.Window) {
			select {
			case <-r.host.progress:
			case <-time.After(50 * time.Millisecond): // look at the clock and the watchdog again
			}
			continue
		}
		r.publish(p, seq, time.Now().UnixNano())
		seq++
	}
	return r.endPhase(p)
}

func (r *runner) boundary() boundary {
	if r.pubSpan == nil {
		return boundary{}
	}
	return r.pubSpan.totals()
}

// endPhase collects the sub-host's verdict, or books the outstanding
// events as failed when the workload was aborted.
func (r *runner) endPhase(p *phase) (*phaseResult, error) {
	res := p.res
	res.Published = p.published.Load()
	res.PubUse = readUsage().since(p.before)
	var rep *reply
	var err error
	if !p.abort.Load() {
		rep, err = r.host.call(&request{Op: "end", Published: res.Published}, time.Duration((stallAfter+30)*float64(time.Second)))
	}
	p.stopWatch()
	res.WireBytes = loopbackBytes() - p.beforeWire
	res.Boundary = r.boundary().since(p.beforeSpan)
	r.failed += res.Errors
	if p.abort.Load() || err != nil {
		if r.aborted == "" {
			r.aborted = err.Error()
		}
		// Everything published and not known complete is failed.
		expect := r.w.expectPerKey()
		done := r.host.completed.Load()
		for seq := int64(0); seq < res.Published; seq++ {
			e := int64(expect[p.sched.key(seq)])
			r.attempted += e
			if seq >= done {
				r.failed += e
			}
		}
		return res, fmt.Errorf("workload aborted: %s", r.aborted)
	}
	res.Report = rep.Report
	r.attempted += rep.Report.Expected
	r.failed += rep.Report.failed()
	if rep.Report.Stalled {
		r.aborted = fmt.Sprintf("phase %s: deliveries stopped arriving (%d missing)", res.Name, rep.Report.Missing)
		return res, fmt.Errorf("workload aborted: %s", r.aborted)
	}
	return res, nil
}

// loopbackBytes reads how many bytes the loopback interface has carried
// (0 when /proc/net/dev cannot be read): everything the two processes
// exchange over TCP, with its IP and TCP headers and its bare ACKs.
func loopbackBytes() int64 {
	b, err := os.ReadFile("/proc/net/dev")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		name, rest, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "lo" {
			continue
		}
		if f := strings.Fields(rest); len(f) > 0 {
			n, _ := strconv.ParseInt(f[0], 10, 64) // a malformed counter reads 0
			return n
		}
	}
	return 0
}
