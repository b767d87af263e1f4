package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"govents"
)

// The sub-host is this program re-executed as a child: it hosts every
// subscriber Domain of the workload, each on its own TCP listener, and
// keeps the delivery ledger. It talks to the parent over three
// inherited pipes: requests on stdin, replies on fd 3 (one JSON object
// per request) and, on fd 4, a stream of completed-event counts that
// the closed-loop generator blocks on.
const (
	replyFD  = 3
	streamFD = 4
)

// request is one command from the parent; which fields matter depends
// on Op.
type request struct {
	Op string // open | phase | end | stats | close

	// open
	Workload string
	Seed     int64
	Traced   bool
	PubAddr  string
	Dir      string // root for durability directories

	// phase
	Phase     int32
	T0        int64 // wall-clock origin of the phase's one-second windows
	Latency   bool  // keep per-delivery latency samples
	MaxEvents int64 // events the phase may publish at most
	Hint      int64 // events it will probably publish (buffer sizing)

	// end
	Published int64
}

// reply answers one request.
type reply struct {
	Err    string
	Addrs  []string
	Report *phaseReport
	Stats  *hostStats
}

// usage is a process's cumulative resource use at one instant.
type usage struct {
	CPUNs      int64
	Mallocs    uint64
	AllocBytes uint64
	MaxRSSKB   int64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		CPUNs:      ru.Utime.Nano() + ru.Stime.Nano(),
		Mallocs:    ms.Mallocs,
		AllocBytes: ms.TotalAlloc,
		MaxRSSKB:   ru.Maxrss,
	}
}

func (u usage) since(start usage) usage {
	return usage{CPUNs: u.CPUNs - start.CPUNs, Mallocs: u.Mallocs - start.Mallocs,
		AllocBytes: u.AllocBytes - start.AllocBytes, MaxRSSKB: u.MaxRSSKB}
}

// phaseReport is the sub-host's verdict on one phase.
type phaseReport struct {
	Completed  int64 // events whose every expected delivery arrived
	Deliveries int64 // handler invocations of this phase
	Expected   int64 // deliveries the oracle demands
	Missing    int64
	Duplicate  int64
	Misordered int64
	Unexpected int64 // deliveries the subscription's filter rejects
	Stray      int64 // deliveries carrying another phase's stamp
	Stalled    bool  // the drain gave up after stallAfter without progress
	PerSecond  []int64
	Latency    latencySummary
	Use        usage // resources spent from the phase's start until its last delivery
}

func (r *phaseReport) failed() int64 {
	return r.Missing + r.Duplicate + r.Misordered + r.Unexpected
}

// subLedger is what one subscription received in the current phase.
type subLedger struct {
	mu   sync.Mutex
	seqs []uint32
	lats []int64
	wins []int
}

// ledger records one phase's deliveries. The handler path is one
// uncontended mutex, two appends and one atomic add.
type ledger struct {
	w       *workload
	sched   schedule
	t0      int64
	latency bool
	expect  []int32 // deliveries owed per key
	got     []int32 // deliveries seen per Seq (atomic)
	subs    []subLedger
	start   usage

	completed  atomic.Int64
	deliveries atomic.Int64
	stray      atomic.Int64
	perSecond  [64]atomic.Int64
	progress   chan struct{} // cap 1: completed changed
}

func newLedger(w *workload, seed int64, req *request) *ledger {
	l := &ledger{
		w:        w,
		sched:    newSchedule(seed, req.Phase, w.Keys),
		t0:       req.T0,
		latency:  req.Latency,
		expect:   w.expectPerKey(),
		got:      make([]int32, req.MaxEvents),
		subs:     make([]subLedger, w.numSubs()),
		progress: make(chan struct{}, 1),
	}
	i := 0
	for _, d := range w.Subs {
		for _, f := range d {
			share := 0
			for k := int32(0); k < w.Keys; k++ {
				if f.pass(k) {
					share++
				}
			}
			n := int(req.Hint)*share/int(w.Keys) + 64
			l.subs[i].seqs = make([]uint32, 0, n)
			if l.latency {
				l.subs[i].lats = make([]int64, 0, n)
				l.subs[i].wins = make([]int, 0, n)
			}
			i++
		}
	}
	return l
}

// deliver is the handler body of subscription sub.
func (l *ledger) deliver(sub int, b *Body) {
	now := time.Now().UnixNano()
	if b.Phase != l.sched.phase || b.Seq < 0 || b.Seq >= int64(len(l.got)) {
		l.stray.Add(1)
		return
	}
	s := &l.subs[sub]
	s.mu.Lock()
	s.seqs = append(s.seqs, uint32(b.Seq))
	if l.latency {
		s.lats = append(s.lats, now-b.SentNs)
		s.wins = append(s.wins, secondOf(b.SentNs, l.t0))
	}
	s.mu.Unlock()
	l.deliveries.Add(1)
	if atomic.AddInt32(&l.got[b.Seq], 1) == l.expect[b.Key] {
		l.completed.Add(1)
		l.perSecond[secondOf(now, l.t0)].Add(1)
		select {
		case l.progress <- struct{}{}:
		default:
		}
	}
}

func secondOf(ns, t0 int64) int {
	s := (ns - t0) / int64(time.Second)
	if s < 0 {
		return 0
	}
	if s > 63 {
		return 63
	}
	return int(s)
}

// complete is how many of the first n events owe at least one delivery
// — the count `completed` must reach.
func (l *ledger) complete(n int64) int64 {
	var c int64
	for seq := int64(0); seq < n; seq++ {
		if l.expect[l.sched.key(seq)] > 0 {
			c++
		}
	}
	return c
}

// drain waits until every event below n is complete, giving up after
// stallAfter without progress.
func (l *ledger) drain(n int64) (stalled bool) {
	want := l.complete(n)
	idle := time.NewTimer(time.Duration(stallAfter * float64(time.Second)))
	defer idle.Stop()
	for l.completed.Load() < want {
		select {
		case <-l.progress:
			if !idle.Stop() {
				<-idle.C
			}
			idle.Reset(time.Duration(stallAfter * float64(time.Second)))
		case <-idle.C:
			return true
		}
	}
	return false
}

// verify checks every subscription against the oracle.
func (l *ledger) verify(n int64) *phaseReport {
	r := &phaseReport{
		Completed:  l.completed.Load(),
		Deliveries: l.deliveries.Load(),
		Stray:      l.stray.Load(),
	}
	for i := range l.perSecond {
		r.PerSecond = append(r.PerSecond, l.perSecond[i].Load())
	}
	for len(r.PerSecond) > 0 && r.PerSecond[len(r.PerSecond)-1] == 0 {
		r.PerSecond = r.PerSecond[:len(r.PerSecond)-1]
	}
	expected := map[filterSpec][]uint32{}
	var lats []int64
	var wins []int
	i := 0
	for _, d := range l.w.Subs {
		for _, f := range d {
			exp, ok := expected[f]
			if !ok {
				exp = l.sched.expected(f, n)
				expected[f] = exp
			}
			s := &l.subs[i]
			s.mu.Lock()
			got := s.seqs
			lats = append(lats, s.lats...)
			wins = append(wins, s.wins...)
			s.mu.Unlock()
			r.Expected += int64(len(exp))
			if l.w.Class == "fifo" {
				// One publisher, so per-publisher order is the
				// publication order.
				for j := 1; j < len(got); j++ {
					if got[j] < got[j-1] {
						r.Misordered++
					}
				}
			}
			sorted := append([]uint32(nil), got...)
			sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
			a, b := 0, 0
			for a < len(exp) || b < len(sorted) {
				switch {
				case b > 0 && b < len(sorted) && sorted[b] == sorted[b-1]:
					r.Duplicate++
					b++
				case b == len(sorted) || (a < len(exp) && exp[a] < sorted[b]):
					r.Missing++
					a++
				case a == len(exp) || sorted[b] < exp[a]:
					r.Unexpected++
					b++
				default:
					a++
					b++
				}
			}
			i++
		}
	}
	r.Latency = summarize(lats, wins)
	return r
}

// subhost is the child's state.
type subhost struct {
	w       *workload
	seed    int64
	domains []*govents.Domain
	spans   []*spanTransport // traced runs only
	trace   traceLog
	cur     atomic.Pointer[ledger]
	stream  *os.File
}

// subhostMain serves requests until close or until the parent is gone
// (EOF on stdin), so the child never outlives the command. It exits
// without closing its Domains: every delivery has been checked by then,
// the kernel closes the sockets, the parent removes the durability
// directories, and deactivating 500 subscriptions one by one would cost
// more than the set-up did.
func subhostMain() int {
	in := json.NewDecoder(os.Stdin)
	out := json.NewEncoder(os.NewFile(replyFD, "replies"))
	h := &subhost{stream: os.NewFile(streamFD, "stream")}
	for {
		var req request
		if err := in.Decode(&req); err != nil {
			if !errors.Is(err, io.EOF) {
				fmt.Fprintln(os.Stderr, "subhost: bad request:", err)
			}
			return 1
		}
		rep := h.handle(&req)
		if err := out.Encode(rep); err != nil {
			return 1
		}
		if req.Op == "close" {
			return 0
		}
	}
}

func (h *subhost) handle(req *request) *reply {
	var rep reply
	var err error
	switch req.Op {
	case "open":
		rep.Addrs, err = h.open(req)
	case "phase":
		l := newLedger(h.w, h.seed, req)
		l.start = readUsage()
		h.cur.Store(l)
	case "end":
		if l := h.cur.Load(); l == nil {
			err = errors.New("end before phase")
		} else {
			stalled := l.drain(req.Published)
			use := readUsage().since(l.start) // before the oracle's own work
			rep.Report = l.verify(req.Published)
			rep.Report.Stalled, rep.Report.Use = stalled, use
		}
	case "stats":
		rep.Stats = h.stats()
	case "close": // the reply is all; subhostMain exits after it
	default:
		err = fmt.Errorf("unknown op %q", req.Op)
	}
	if err != nil {
		rep.Err = err.Error()
	}
	return &rep
}

// open listens, opens and subscribes every subscriber domain.
func (h *subhost) open(req *request) ([]string, error) {
	w, err := workloadByName(req.Workload)
	if err != nil {
		return nil, err
	}
	h.w, h.seed = w, req.Seed
	var trs []govents.Transport
	peers := []string{req.PubAddr}
	for range w.Subs {
		tr, err := govents.ListenTCP("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		if req.Traced {
			st := &spanTransport{Transport: tr}
			h.spans = append(h.spans, st)
			tr = st
		}
		trs = append(trs, tr)
		peers = append(peers, tr.Addr())
	}
	sub := 0
	for i, tr := range trs {
		opts := append(w.domainOptions(tr, filepath.Join(req.Dir, fmt.Sprintf("sub%d", i)), req.Traced, h.trace.hook),
			govents.WithPeers(peers...))
		d, err := govents.Open(bg, tr.Addr(), opts...)
		if err != nil {
			return nil, err
		}
		h.domains = append(h.domains, d)
		for _, f := range w.Subs[i] {
			idx := sub
			if err := w.subscribe(d, fmt.Sprintf("bench-sub-%d", idx), f, func(b *Body) {
				if l := h.cur.Load(); l != nil {
					l.deliver(idx, b)
				}
			}); err != nil {
				return nil, err
			}
			sub++
		}
	}
	go h.streamCompleted() // ends with the process
	return peers[1:], nil
}

// streamCompleted writes (phase, completed) records whenever the count
// moved. The half-millisecond tick bounds the stream at two thousand
// writes a second; against a window of hundreds of events the generator
// loses nothing by hearing that late.
func (h *subhost) streamCompleted() {
	var buf [12]byte
	tick := time.NewTicker(500 * time.Microsecond)
	defer tick.Stop()
	var lastL *ledger
	var last int64
	for range tick.C {
		l := h.cur.Load()
		if l == nil {
			continue
		}
		c := l.completed.Load()
		if l == lastL && c == last {
			continue
		}
		lastL, last = l, c
		binary.LittleEndian.PutUint32(buf[:4], uint32(l.sched.phase))
		binary.LittleEndian.PutUint64(buf[4:], uint64(c))
		if _, err := h.stream.Write(buf[:]); err != nil {
			return
		}
	}
}
