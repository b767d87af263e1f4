package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"govents"
	"govents/internal/codec"
	"govents/internal/core"
	"govents/internal/dace"
	"govents/internal/durable"
	"govents/internal/filter"
	"govents/internal/matching"
	"govents/internal/multicast"
	"govents/internal/netsim"
	"govents/internal/obvent"
	"govents/internal/routing"
	"govents/internal/store"
	"govents/internal/transport"
)

// The layer probes drive each module alone, through its exported entry
// points, with the workload's own event stream. Its neighbours are an
// in-memory transport (stubNet) or the engine's loopback
// disseminator, and the harness takes a span around every call. All of
// them run in this process, after the two-process phases, so they never
// compete with a measurement.

// probeEvents is how many distinct events a probe cycles through.
const probeEvents = 1024

// probeBudget bounds each timed loop.
const probeBudget = 300 * time.Millisecond

// probe carries what the probes share: the workload's events, encoded
// once, and each probe's findings.
type probe struct {
	w      *workload
	outDir string
	reg    *obvent.Registry
	cdc    *codec.Codec
	class  string // registered wire name of the workload's class
	events []obvent.Obvent
	keys   []int32
	envs   []*codec.Envelope // events, encoded
	frames [][]byte          // envs, marshaled

	// Findings, in nanoseconds per operation unless named otherwise.
	encode, marshal, unmarshal, source, clone float64
	codecAllocs                               float64
	destinations, routingAllocs, pruned       float64
	adApplyMs                                 float64
	match, matches                            float64
	broadcast, receive, ack, mcastAllocs      float64
	dataFrameBytes                            float64
	dacePublish, daceAllocs                   float64
	send, onewayP50, onewayP99                float64
	frameAllocs, frameOverhead, frameCPU      float64
	dispatchCPU, allocsPerMatch               float64
	dAppend, dStage, dAck                     float64
}

// measure calls fn in batches until the budget is spent and returns the
// median batch's time per call, the allocations per call and the calls
// made. The median discards batches a collection or a preemption hit.
func measure(budget time.Duration, batch int, fn func(i int)) (nsPerOp, allocsPerOp float64, ops int) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	var per []float64
	for start := time.Now(); time.Since(start) < budget || len(per) < 3; {
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			fn(ops)
			ops++
		}
		per = append(per, float64(time.Since(t0))/float64(batch))
	}
	runtime.ReadMemStats(&ms)
	return median(per), float64(ms.Mallocs-mallocs) / float64(ops), ops
}

func cpuNow() int64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// newProbe encodes the workload's event stream once.
func newProbe(w *workload, seed int64, outDir string) (*probe, error) {
	p := &probe{w: w, outDir: outDir, reg: obvent.NewRegistry()}
	p.cdc = codec.New(p.reg)
	s := newSchedule(seed, 100, w.Keys)
	filler := pad(seed, w.PadBytes)
	for i := int64(0); i < probeEvents; i++ {
		ev := w.newEvent(s.body(i, 0), filler)
		if i == 0 {
			name, err := p.reg.Register(ev)
			if err != nil {
				return nil, err
			}
			p.class = name
		}
		env, err := p.cdc.Encode(ev)
		if err != nil {
			return nil, err
		}
		frame, err := codec.Marshal(env)
		if err != nil {
			return nil, err
		}
		p.events = append(p.events, ev)
		p.keys = append(p.keys, s.key(i))
		p.envs = append(p.envs, env)
		p.frames = append(p.frames, frame)
	}
	return p, nil
}

// infos are the advertisements of subscriber domain d.
func (p *probe) infos(d int) []core.SubscriptionInfo {
	var out []core.SubscriptionInfo
	for i, f := range p.w.Subs[d] {
		info := core.SubscriptionInfo{ID: fmt.Sprintf("d%d/sub-%d", d, i), TypeName: p.class, Certified: p.w.Class == "cert"}
		if e := f.expr(); e != nil {
			info.Filter, _ = filter.MarshalCanonical(e) // the workload's filters are valid by construction
		}
		if p.w.Class == "cert" {
			info.DurableID = fmt.Sprintf("bench-sub-%d", i)
		}
		out = append(out, info)
	}
	return out
}

func subAddr(d int) string { return fmt.Sprintf("sub-%d", d) }

// dests are the subscriber domains owed event i under the workload's
// placement.
func (p *probe) dests(i int) []string {
	var out []string
	for d, subs := range p.w.Subs {
		for _, f := range subs {
			if p.w.Placement == govents.AtSubscriber || f.pass(p.keys[i%probeEvents]) {
				out = append(out, subAddr(d))
				break
			}
		}
	}
	return out
}

// run executes every probe the workload has a layer for.
func (p *probe) run() error {
	for _, step := range []func() error{
		p.codec, p.routing, p.matching, p.multicast, p.dace, p.transport, p.core, p.durable,
	} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

func (p *probe) codec() error {
	var err error
	note := func(e error) {
		if e != nil && err == nil {
			err = e
		}
	}
	var a1, a2, a3, a4, a5 float64
	p.encode, a1, _ = measure(probeBudget/3, 64, func(i int) {
		_, e := p.cdc.Encode(p.events[i%probeEvents])
		note(e)
	})
	p.marshal, a2, _ = measure(probeBudget/3, 64, func(i int) {
		_, e := codec.Marshal(p.envs[i%probeEvents])
		note(e)
	})
	p.unmarshal, a3, _ = measure(probeBudget/3, 64, func(i int) {
		_, e := codec.Unmarshal(p.frames[i%probeEvents])
		note(e)
	})
	var src codec.CloneSource
	p.source, a4, _ = measure(probeBudget/3, 64, func(i int) {
		note(p.cdc.SourceInto(p.envs[i%probeEvents], &src))
	})
	p.clone, a5, _ = measure(probeBudget/3, 64, func(i int) {
		// A fresh source per event: the first clone of an envelope pays
		// the decode, as the first delivery does.
		if i%8 == 0 {
			note(p.cdc.SourceInto(p.envs[i%probeEvents], &src))
		}
		_, e := src.Clone()
		note(e)
	})
	p.codecAllocs = a1 + a2 + a3 + a4 + a5
	return err
}

// routing builds the publisher's table from the workload's
// advertisements and resolves each event the way dace does for its
// class.
func (p *probe) routing() error {
	tbl := routing.NewTable(p.reg)
	var src codec.CloneSource
	full := func() (any, error) { return src.Clone() }
	resolve := func(i int, dst []string) []string {
		env := p.envs[i%probeEvents]
		switch {
		case p.w.Class == "cert":
			tbl.ForEachConforming(env.Type, func(node string, _ core.SubscriptionInfo) { dst = append(dst, node) })
		case p.w.Placement == govents.AtSubscriber:
			dst = tbl.NodesFor(env.Type, dst)
		default:
			if err := p.cdc.SourceInto(env, &src); err != nil {
				return dst
			}
			wp, payload, _ := src.Wire()
			dst = tbl.DestinationsWire(env.Type, wp, payload, full, dst)
		}
		return dst
	}
	t0 := time.Now()
	for d := range p.w.Subs {
		tbl.ApplySnapshot(subAddr(d), 1, p.infos(d))
	}
	resolve(0, nil) // compiles the class plan
	p.adApplyMs = float64(time.Since(t0)) / 1e6
	var sent int
	var dst []string
	var ops int
	p.destinations, p.routingAllocs, ops = measure(probeBudget, 64, func(i int) {
		dst = resolve(i, dst[:0])
		sent += len(dst)
	})
	p.pruned = 1 - float64(sent)/float64(ops*len(p.w.Subs))
	return nil
}

// matching evaluates the workload's subscriptions as one compound, the
// way a subscriber's dispatch table does.
func (p *probe) matching() error {
	filters := map[string]*filter.Expr{}
	for d, subs := range p.w.Subs {
		for i, f := range subs {
			if e := f.expr(); e != nil {
				filters[fmt.Sprintf("d%d/sub-%d", d, i)] = e
			}
		}
	}
	if len(filters) == 0 {
		return nil // unfiltered subscriptions never reach the matcher
	}
	c := matching.New()
	if err := c.AddBatch(filters); err != nil {
		return err
	}
	var src codec.CloneSource
	full := func() (any, error) { return src.Clone() }
	var matched, ops int
	var ids []string
	var err error
	p.match, _, ops = measure(probeBudget, 64, func(i int) {
		env := p.envs[i%probeEvents]
		if e := p.cdc.SourceInto(env, &src); e != nil {
			err = e
			return
		}
		wp, payload, _ := src.Wire()
		ids, _ = c.MatchWireAppend(wp, payload, full, ids[:0])
		matched += len(ids)
	})
	p.matches = float64(matched) / float64(ops)
	return err
}

// stubNet is the in-memory transport the multicast and dace probes run
// over. Send queues a copy of the frame; nothing moves until the probe
// takes it off the queue, so every delivery happens inside a span the
// probe chose, and the probe counts the frames and bytes as it goes.
type stubNet struct {
	mu    sync.Mutex
	eps   map[string]*stubEndpoint
	queue []stubFrame
}

type stubFrame struct {
	from, to string
	payload  []byte
}

type stubEndpoint struct {
	net     *stubNet
	addr    string
	mu      sync.Mutex
	handler netsim.Handler
}

func newStubNet() *stubNet { return &stubNet{eps: map[string]*stubEndpoint{}} }

func (n *stubNet) endpoint(addr string) *stubEndpoint {
	ep := &stubEndpoint{net: n, addr: addr}
	n.mu.Lock()
	n.eps[addr] = ep
	n.mu.Unlock()
	return ep
}

func (e *stubEndpoint) Addr() string { return e.addr }

func (e *stubEndpoint) SetHandler(h netsim.Handler) {
	e.mu.Lock()
	e.handler = h
	e.mu.Unlock()
}

func (e *stubEndpoint) Close() error { return nil }

func (e *stubEndpoint) Send(to string, payload []byte) error {
	n := e.net
	n.mu.Lock()
	n.queue = append(n.queue, stubFrame{from: e.addr, to: to, payload: append([]byte(nil), payload...)})
	n.mu.Unlock()
	return nil
}

// take removes the queued frames addressed to the given endpoint (all
// frames when to is empty).
func (n *stubNet) take(to string) []stubFrame {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out, keep []stubFrame
	for _, f := range n.queue {
		if to == "" || f.to == to {
			out = append(out, f)
		} else {
			keep = append(keep, f)
		}
	}
	n.queue = keep
	return out
}

// deliver hands one frame to its destination's handler.
func (n *stubNet) deliver(f stubFrame) {
	n.mu.Lock()
	ep := n.eps[f.to]
	n.mu.Unlock()
	if ep == nil {
		return
	}
	ep.mu.Lock()
	h := ep.handler
	ep.mu.Unlock()
	if h != nil {
		h(f.from, f.payload)
	}
}

// pump delivers queued frames until none is left.
func (n *stubNet) pump() {
	for {
		fs := n.take("")
		if len(fs) == 0 {
			return
		}
		for _, f := range fs {
			n.deliver(f)
		}
	}
}

// multicast drives the workload's protocol over the stub: the
// publisher's broadcast call, each subscriber's handling of the data
// frame (which produces the acknowledgement) and the publisher's
// handling of the acknowledgements.
func (p *probe) multicast() error {
	net := newStubNet()
	const pubAddr = "pub"
	members := []string{pubAddr}
	for d := range p.w.Subs {
		members = append(members, subAddr(d))
	}
	deliver := func(string, []byte) {} // the upcall's consumer is not this probe's business
	newGroup := func(addr string) multicast.Group {
		mux := multicast.NewMux(net.endpoint(addr))
		switch p.w.Class {
		case "fifo":
			g := multicast.NewFIFO(mux, "bench", deliver, multicast.Options{})
			g.SetMembers(members)
			return g
		case "cert":
			g := multicast.NewCertified(mux, "bench", store.NewMemLog(), store.NewMemSet(), deliver, multicast.Options{})
			return g
		}
		g := multicast.NewBestEffort(mux, "bench", deliver)
		g.SetMembers(members)
		return g
	}
	pub := newGroup(pubAddr)
	defer pub.Close()
	for d := range p.w.Subs {
		defer newGroup(subAddr(d)).Close()
	}
	if c, ok := pub.(*multicast.Certified); ok {
		var subs []multicast.CertSubscriber
		for d := range p.w.Subs {
			subs = append(subs, multicast.CertSubscriber{DurableID: subAddr(d), Addr: subAddr(d)})
		}
		if err := c.SetSubscribers(subs); err != nil {
			return err
		}
	}
	broadcast := func(i int) error {
		payload, dests := p.frames[i%probeEvents], p.dests(i)
		switch g := pub.(type) {
		case *multicast.FIFO:
			return g.BroadcastSplit([]multicast.Send{{Dests: dests, Payload: payload}})
		case *multicast.Certified:
			return g.BroadcastWithID(p.envs[i%probeEvents].ID+strconv.Itoa(i), payload)
		case *multicast.BestEffort:
			return g.BroadcastTo(dests, payload)
		}
		return nil
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	var bcast, recv, ack []float64
	var dataFrames, dataBytes int64
	var err error
	for i, start := 0, time.Now(); time.Since(start) < probeBudget; i++ {
		t0 := time.Now()
		if e := broadcast(i); e != nil {
			err = e
		}
		bcast = append(bcast, float64(time.Since(t0)))
		for _, f := range net.take("") {
			if f.to == pubAddr {
				net.deliver(f) // a retransmission tick's stray; not a span of this event
				continue
			}
			dataFrames++
			dataBytes += int64(len(f.payload))
			t1 := time.Now()
			net.deliver(f)
			recv = append(recv, float64(time.Since(t1)))
		}
		for _, f := range net.take(pubAddr) {
			t2 := time.Now()
			net.deliver(f)
			ack = append(ack, float64(time.Since(t2)))
		}
	}
	runtime.ReadMemStats(&ms)
	p.broadcast, p.receive, p.ack = median(bcast), median(recv), median(ack)
	if dataFrames > 0 {
		p.mcastAllocs = float64(ms.Mallocs-mallocs) / float64(dataFrames)
		p.dataFrameBytes = float64(dataBytes) / float64(dataFrames)
	}
	return err
}

// dace runs a publisher node and one node per subscriber domain over
// the stub, advertises the workload's subscriptions through the control
// channel and times PublishEnvelope.
func (p *probe) dace() error {
	net := newStubNet()
	cfg := dace.Config{Placement: dace.AtPublisher}
	if p.w.Placement == govents.AtSubscriber {
		cfg.Placement = dace.AtSubscriber
	}
	newNode := func(addr string) *dace.Node {
		// Each node gets its own registry, as each process does.
		reg := obvent.NewRegistry()
		reg.MustRegister(p.events[0])
		n := dace.NewNode(net.endpoint(addr), reg, cfg)
		n.SetSink(func(*codec.Envelope) {}) // the engine above is not this probe's business
		return n
	}
	peers := []string{"pub"}
	for d := range p.w.Subs {
		peers = append(peers, subAddr(d))
	}
	pub := newNode("pub")
	defer pub.Close()
	pub.SetPeers(peers)
	for d := range p.w.Subs {
		n := newNode(subAddr(d))
		defer n.Close()
		n.SetPeers(peers)
		if err := n.SubscriptionChanged(p.infos(d)); err != nil {
			return err
		}
	}
	for deadline := time.Now().Add(30 * time.Second); pub.RemoteSubscriptionCount() < p.w.numSubs(); {
		if time.Now().After(deadline) {
			return fmt.Errorf("dace probe: %d of %d subscriptions advertised", pub.RemoteSubscriptionCount(), p.w.numSubs())
		}
		net.pump()
		time.Sleep(time.Millisecond) // retransmission ticks refill the queue
	}
	var err error
	p.dacePublish, p.daceAllocs, _ = measure(probeBudget, 16, func(i int) {
		env := *p.envs[i%probeEvents]
		env.Publisher = "pub"
		if p.w.Class == "cert" {
			env.ID += strconv.Itoa(i) // the outbox ignores an ID it has seen
		}
		if e := pub.PublishEnvelope(&env); e != nil {
			err = e
		}
		if i%16 == 15 {
			net.pump()
		}
	})
	net.pump()
	return err
}

// transport drives a Listen pair on loopback inside this process: the
// one probe that opens sockets.
func (p *probe) transport() error {
	a, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer b.Close()
	size := int(p.dataFrameBytes)
	if size == 0 {
		size = len(p.frames[0])
	}
	payload := make([]byte, size)

	// One-way latency and the cost of a Send call, at the workload's
	// open-loop rate: each frame carries its send instant.
	var mu sync.Mutex
	var oneway []int64
	var received atomic.Int64
	progress := make(chan struct{}, 1)
	b.SetHandler(func(_ string, frame []byte) {
		now := time.Now().UnixNano()
		if len(frame) >= 8 {
			sent := int64(uint64(frame[0]) | uint64(frame[1])<<8 | uint64(frame[2])<<16 | uint64(frame[3])<<24 |
				uint64(frame[4])<<32 | uint64(frame[5])<<40 | uint64(frame[6])<<48 | uint64(frame[7])<<56)
			mu.Lock()
			oneway = append(oneway, now-sent)
			mu.Unlock()
		}
		received.Add(1)
		select {
		case progress <- struct{}{}:
		default:
		}
	})
	stamp := func(ns int64) {
		for k := 0; k < 8; k++ {
			payload[k] = byte(ns >> (8 * k))
		}
	}
	var sends []float64
	pace, err := newPacer()
	if err != nil {
		return err
	}
	defer pace.close()
	interval := int64(time.Second) / int64(p.w.LoRate)
	n := int(int64(probeBudget) / interval)
	start := time.Now().UnixNano()
	for i := 0; i < n; i++ {
		t0 := pace.until(start + int64(i)*interval)
		stamp(t0)
		if err := a.Send(b.Addr(), payload); err != nil {
			return err
		}
		sends = append(sends, float64(time.Now().UnixNano()-t0))
	}
	if err := waitFor(&received, int64(n)); err != nil {
		return err
	}
	mu.Lock()
	sortInt64(oneway)
	p.onewayP50, p.onewayP99 = float64(quantile(oneway, 0.5)), float64(quantile(oneway, 0.99))
	mu.Unlock()
	p.send = median(sends)

	// CPU and allocations per frame, both ends, at a bounded backlog.
	received.Store(0)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs, cpu0 := ms.Mallocs, cpuNow()
	var sent int64
	for start := time.Now(); time.Since(start) < probeBudget; {
		if sent-received.Load() >= 64 {
			<-progress // block, do not spin: the receiver needs the P
			continue
		}
		if err := a.Send(b.Addr(), payload); err != nil {
			return err
		}
		sent++
	}
	if err := waitFor(&received, sent); err != nil {
		return err
	}
	runtime.ReadMemStats(&ms)
	p.frameCPU = float64(cpuNow()-cpu0) / float64(sent)
	p.frameAllocs = float64(ms.Mallocs-mallocs) / float64(sent)

	// Framing overhead, seen from outside: what a plain TCP listener
	// receives per frame beyond the payload.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	const frames = 64
	got := make(chan int, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			got <- 0
			return
		}
		defer conn.Close()
		total, buf := 0, make([]byte, 64<<10)
		for {
			conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
			n, err := conn.Read(buf)
			total += n
			if err != nil {
				got <- total
				return
			}
		}
	}()
	for i := 0; i < frames; i++ {
		if err := a.Send(ln.Addr().String(), payload); err != nil {
			return err
		}
	}
	p.frameOverhead = float64(<-got)/frames - float64(len(payload))
	return nil
}

func waitFor(n *atomic.Int64, want int64) error {
	for deadline := time.Now().Add(10 * time.Second); n.Load() < want; {
		if time.Now().After(deadline) {
			return fmt.Errorf("probe: %d of %d arrived", n.Load(), want)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// core runs an engine over the loopback disseminator with all of the
// workload's subscriptions and publishes at a bounded backlog; it
// reports CPU per event, because dispatch spreads over goroutines.
func (p *probe) core() error {
	eng := core.NewEngine("probe", core.NewLocal(), core.WithTelemetry(nil))
	defer eng.Close()
	if _, err := eng.Registry().Register(p.events[0]); err != nil {
		return err
	}
	var delivered atomic.Int64
	progress := make(chan struct{}, 1)
	handler := func(obvent.Obvent) {
		delivered.Add(1)
		select {
		case progress <- struct{}{}:
		default:
		}
	}
	typ := reflect.TypeOf(p.events[0])
	for _, subs := range p.w.Subs {
		for _, f := range subs {
			s, err := eng.SubscribeDynamic(typ, f.expr(), nil, handler)
			if err != nil {
				return err
			}
			if err := s.Activate(); err != nil {
				return err
			}
		}
	}
	expect := p.w.expectPerKey()
	var perEvent int64
	for _, e := range expect {
		perEvent += int64(e)
	}
	backlog := int64(p.w.Window) * (perEvent/int64(len(expect)) + 1)
	publish := func(budget time.Duration) (events, owed int64, err error) {
		delivered.Store(0)
		for start := time.Now(); time.Since(start) < budget; {
			if owed-delivered.Load() >= backlog {
				<-progress // block, do not spin: dispatch needs the P
				continue
			}
			i := int(events % probeEvents)
			if e := eng.Publish(p.events[i]); e != nil {
				return events, owed, e
			}
			events++
			owed += int64(expect[p.keys[i]])
		}
		return events, owed, waitFor(&delivered, owed)
	}
	if _, _, err := publish(probeBudget / 4); err != nil { // warm the dispatch table
		return err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs, cpu0 := ms.Mallocs, cpuNow()
	events, owed, err := publish(2 * probeBudget)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms)
	p.dispatchCPU = float64(cpuNow()-cpu0) / float64(events)
	if owed > 0 {
		p.allocsPerMatch = float64(ms.Mallocs-mallocs) / float64(owed)
	}
	return nil
}

// durable drives the outbox and the staging inbox of the certified
// workload; the other workloads have no durable layer and report zero.
func (p *probe) durable() error {
	if !p.w.Durable {
		return nil
	}
	dir, err := os.MkdirTemp(p.outDir, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := durable.SegmentConfig{Sync: durable.SyncBatch}
	ob, err := durable.OpenOutbox(filepath.Join(dir, "outbox-data"), filepath.Join(dir, "outbox-meta"), cfg)
	if err != nil {
		return err
	}
	defer ob.Close()
	ib, err := durable.OpenInbox(filepath.Join(dir, "inbox-data"), filepath.Join(dir, "inbox-acks"), cfg)
	if err != nil {
		return err
	}
	defer ib.Close()
	const consumer = "bench-sub-0"
	if err := ob.RegisterConsumer(consumer); err != nil {
		return err
	}
	if _, err := ib.EnsureCursor(consumer); err != nil {
		return err
	}
	var appends, stages, acks []float64
	for i, start := 0, time.Now(); time.Since(start) < probeBudget; i++ {
		id, payload := fmt.Sprintf("%s-%d", p.envs[i%probeEvents].ID, i), p.frames[i%probeEvents]
		t0 := time.Now()
		if err := ob.Append(store.Entry{ID: id, Payload: payload}); err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := ib.Stage(id, "pub", payload); err != nil {
			return err
		}
		t2 := time.Now()
		if err := ib.Ack(consumer, id); err != nil {
			return err
		}
		if err := ob.Ack(consumer, id); err != nil {
			return err
		}
		t3 := time.Now()
		appends = append(appends, float64(t1.Sub(t0)))
		stages = append(stages, float64(t2.Sub(t1)))
		acks = append(acks, float64(t3.Sub(t2)))
	}
	p.dAppend, p.dStage, p.dAck = median(appends), median(stages), median(acks)
	return nil
}

// layerCost is one row of the ledger: a layer's own busy time per
// event on this workload, its children's time taken out.
type layerCost struct {
	Layer string
	Us    float64
}

// ledger turns the probes' per-call costs into busy microseconds per
// event, using how often the workload makes each call: sends is the
// data frames per event (subscriber domains reached), deliveries the
// handler invocations per event, frames every transport frame per event
// in both directions as the traced run counted them.
func (p *probe) ledger(sends, deliveries, frames float64) []layerCost {
	pos := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		return v
	}
	// dace.PublishEnvelope calls routing, the envelope marshal and the
	// multicast broadcast; the engine's dispatch calls the encode (on
	// its loopback publish), the matcher and one clone per delivery.
	daceSelf := pos(p.dacePublish - p.destinations - p.marshal - p.broadcast)
	coreSelf := pos(p.dispatchCPU - p.encode - p.match - p.source - deliveries*p.clone)
	rows := []layerCost{
		{"codec", p.encode + p.marshal + sends*(p.unmarshal+p.source) + deliveries*p.clone},
		{"routing", p.destinations},
		{"matching", sends * p.match},
		{"multicast", p.broadcast + sends*(p.receive+p.ack)},
		{"dace", daceSelf},
		{"transport", frames * p.frameCPU},
		{"core", coreSelf},
		{"durable", p.dAppend + p.dStage + p.dAck},
	}
	for i := range rows {
		rows[i].Us /= 1e3
	}
	return rows
}

func printLedger(rows []layerCost, cpuUs float64) {
	sorted := append([]layerCost(nil), rows...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Us > sorted[j].Us })
	var sum float64
	fmt.Println("  layer ledger (probe self time per event, busy us):")
	for _, r := range sorted {
		sum += r.Us
		fmt.Printf("    %-10s %10.2f\n", r.Layer, r.Us)
	}
	fmt.Printf("    %-10s %10.2f of %.2f us CPU per event\n", "explained", sum, cpuUs)
}
