package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"govents"
	"govents/netsim"
)

// Tracing is done from the benchmark's own files, around the calls into
// each layer: spanTransport sits on the multicast/transport boundary of
// both processes, the generator times every Publish call, the handler
// stamps its entry, and the Domain's trace hook adds one record per
// sampled delivery. Spans stay in memory until the run ends.

// spanTransport wraps a Transport of a traced run and accumulates the
// spans that cross it: Send calls going down, handler calls coming up.
type spanTransport struct {
	govents.Transport
	sends, sendBytes, sendNs, sendErrs atomic.Int64
	recvs, recvBytes, recvNs           atomic.Int64
}

func (t *spanTransport) Send(to string, p []byte) error {
	t0 := time.Now()
	err := t.Transport.Send(to, p)
	t.sendNs.Add(int64(time.Since(t0)))
	t.sends.Add(1)
	t.sendBytes.Add(int64(len(p)))
	if err != nil {
		t.sendErrs.Add(1)
	}
	return err
}

func (t *spanTransport) SetHandler(h netsim.Handler) {
	t.Transport.SetHandler(func(from string, p []byte) {
		t0 := time.Now()
		h(from, p)
		t.recvNs.Add(int64(time.Since(t0)))
		t.recvs.Add(1)
		t.recvBytes.Add(int64(len(p)))
	})
}

// boundary is a spanTransport's totals.
type boundary struct {
	Sends, SendBytes, SendNs, SendErrs int64
	Recvs, RecvBytes, RecvNs           int64
}

func (t *spanTransport) totals() boundary {
	return boundary{
		Sends: t.sends.Load(), SendBytes: t.sendBytes.Load(), SendNs: t.sendNs.Load(), SendErrs: t.sendErrs.Load(),
		Recvs: t.recvs.Load(), RecvBytes: t.recvBytes.Load(), RecvNs: t.recvNs.Load(),
	}
}

func (b *boundary) add(o boundary) {
	b.Sends += o.Sends
	b.SendBytes += o.SendBytes
	b.SendNs += o.SendNs
	b.SendErrs += o.SendErrs
	b.Recvs += o.Recvs
	b.RecvBytes += o.RecvBytes
	b.RecvNs += o.RecvNs
}

func (b boundary) since(o boundary) boundary {
	return boundary{
		Sends: b.Sends - o.Sends, SendBytes: b.SendBytes - o.SendBytes, SendNs: b.SendNs - o.SendNs, SendErrs: b.SendErrs - o.SendErrs,
		Recvs: b.Recvs - o.Recvs, RecvBytes: b.RecvBytes - o.RecvBytes, RecvNs: b.RecvNs - o.RecvNs,
	}
}

// hookRecord is one trace-hook record plus the instant the hook ran.
type hookRecord struct {
	EventID string
	Node    string
	Stage   string
	Outcome string
	DurNs   int64
	AtNs    int64 // wall clock when the hook ran
}

// traceLog collects trace-hook records.
type traceLog struct {
	mu   sync.Mutex
	recs []hookRecord
}

func (t *traceLog) hook(e govents.TraceEvent) {
	r := hookRecord{EventID: e.EventID, Node: e.Node, Stage: e.Stage, Outcome: e.Outcome,
		DurNs: int64(e.Duration), AtNs: time.Now().UnixNano()}
	t.mu.Lock()
	t.recs = append(t.recs, r)
	t.mu.Unlock()
}

func (t *traceLog) take() []hookRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.recs
	t.recs = nil
	return out
}

// publishSpan is the harness span around one Publish call.
type publishSpan struct {
	Phase   string
	Seq     int64
	StartNs int64
	DurNs   int64
}

// tracedEvent is one line of trace-<workload>.jsonl: the harness spans
// of an event joined with the trace-hook records of its envelope.
type tracedEvent struct {
	EventID string       `json:"event_id"`
	Phase   string       `json:"phase"`
	Seq     int64        `json:"seq"`
	Publish publishSpan  `json:"gen.publish_call"`
	Hooks   []hookRecord `json:"hooks"`
}

// joinTrace keys everything on the envelope ID. The hook records carry
// it; the harness spans do not (Publish returns no ID), so they are
// attached through the envelope's publish stamp: an e2e record's stamp
// is its hook time minus its duration, one thread publishes, and so the
// stamp falls inside exactly one gen.publish_call span.
func joinTrace(spans []publishSpan, recs []hookRecord) (events []tracedEvent, unmatched int) {
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartNs < spans[j].StartNs })
	byID := map[string]*tracedEvent{}
	var order []string
	for _, r := range recs {
		ev, ok := byID[r.EventID]
		if !ok {
			if r.Stage != "e2e" {
				unmatched++
				continue
			}
			stamp := r.AtNs - r.DurNs
			// The hook runs a little after the duration was taken, so
			// the recovered stamp is late by that much; allow it.
			const slack = 20_000
			i := sort.Search(len(spans), func(i int) bool { return spans[i].StartNs > stamp }) - 1
			if i < 0 || stamp > spans[i].StartNs+spans[i].DurNs+slack {
				unmatched++
				continue
			}
			ev = &tracedEvent{EventID: r.EventID, Phase: spans[i].Phase, Seq: spans[i].Seq, Publish: spans[i]}
			byID[r.EventID] = ev
			order = append(order, r.EventID)
		}
		ev.Hooks = append(ev.Hooks, r)
	}
	for _, id := range order {
		events = append(events, *byID[id])
	}
	return events, unmatched
}

func writeTrace(path string, events []tracedEvent) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
