// Package rmi implements a remote-method-invocation substrate in the
// style of Java RMI, the interaction paradigm the paper positions as
// complementary to publish/subscribe (§5.4): "a combination of both
// represents a very powerful tool for devising distributed
// applications, e.g., by passing object references with obvents."
//
// A server Binds named receivers; clients Dial proxies and invoke
// methods by name with gob-encoded arguments (the reflection dispatch
// plays the part of rmic-generated skeletons). Ref values — serializable
// remote references — can travel inside obvents, enabling the paper's
// Figure 8 scenario where a stock quote carries a reference to the
// stock market on which a broker then synchronously buys.
//
// Distributed garbage collection is modeled both ways the paper
// discusses:
//
//   - DGCPinned reproduces the Java RMI caveat of §5.4.2: a remotely
//     accessible object is pinned while at least one proxy exists, so a
//     crashed subscriber holding a proxy pins the object forever.
//   - DGCLeased implements the "weaker" lease-based scheme of [CNH99]
//     that the paper suggests as the fix: proxies renew leases, and an
//     object whose leases all expire is collected.
package rmi

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"log/slog"
	"reflect"
	"strings"
	"sync"
	"time"

	"govents/internal/codec"
	"govents/internal/netsim"
)

// Errors returned by remote invocations.
var (
	// ErrNoSuchObject reports an unknown (or collected) target.
	ErrNoSuchObject = errors.New("rmi: no such object")
	// ErrNoSuchMethod reports an unknown method on the target.
	ErrNoSuchMethod = errors.New("rmi: no such method")
	// ErrBadArguments reports an arity or type mismatch.
	ErrBadArguments = errors.New("rmi: bad arguments")
	// ErrTimeout reports a call that received no reply in time.
	ErrTimeout = errors.New("rmi: call timed out")
	// ErrClosed reports use of a closed runtime.
	ErrClosed = errors.New("rmi: closed")
)

// DGCMode selects the distributed garbage collection scheme.
type DGCMode int

const (
	// DGCPinned: an exported object lives while any proxy reference
	// exists; references from crashed clients are never reclaimed
	// (the Java RMI behavior the paper criticizes, §5.4.2).
	DGCPinned DGCMode = iota + 1
	// DGCLeased: proxy references expire unless renewed (the [CNH99]
	// remedy).
	DGCLeased
)

// Ref is a serializable remote reference: the value placed inside
// obvents when passing objects by reference (paper §5.4.1). Resolve it
// against a local Runtime to obtain an invocable Proxy.
type Ref struct {
	Addr string // server transport address
	Name string // exported object name
}

// wire message kinds.
type wireKind byte

const (
	kindCall wireKind = iota + 1
	kindResult
	kindAttach  // register interest in an exported object (DGC)
	kindRenew   // renew a lease
	kindRelease // drop a reference explicitly
)

// wireMsg is the single request/response record.
type wireMsg struct {
	Kind    wireKind
	ReqID   string
	Target  string
	Method  string
	Client  string
	Args    [][]byte
	Results [][]byte
	Err     string
}

// Options tunes a Runtime.
type Options struct {
	// DGC selects the garbage-collection scheme (default DGCLeased).
	DGC DGCMode
	// LeaseDuration is how long an unrenewed reference survives in
	// DGCLeased mode (default 200ms — short, for simulation scale).
	LeaseDuration time.Duration
	// RenewInterval is the client-side lease renewal period (default
	// LeaseDuration/4).
	RenewInterval time.Duration
	// CallTimeout bounds a synchronous invocation (default 5s).
	CallTimeout time.Duration
	// Logger receives runtime diagnostics that have no error-return
	// path (undecodable inbound messages). Nil means discard.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.DGC == 0 {
		o.DGC = DGCLeased
	}
	if o.LeaseDuration == 0 {
		o.LeaseDuration = 200 * time.Millisecond
	}
	if o.RenewInterval == 0 {
		o.RenewInterval = o.LeaseDuration / 4
	}
	if o.CallTimeout == 0 {
		o.CallTimeout = 5 * time.Second
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.DiscardHandler)
	}
	return o
}

// Runtime is one process's RMI endpoint: server (exported objects) and
// client (proxies) share the transport.
type Runtime struct {
	tr   netsim.Transport
	self string
	opts Options

	mu      sync.Mutex
	exports map[string]*export
	pending map[string]chan *wireMsg // reqID -> reply
	proxies map[string]*Proxy        // key addr+"/"+name
	closed  bool

	lc   sync.WaitGroup
	done chan struct{}
}

// export is one remotely accessible object.
type export struct {
	recv     reflect.Value
	anchored bool                 // Bind roots are never collected
	refs     map[string]time.Time // client -> last renewal
}

// New creates an RMI runtime over a transport endpoint.
func New(tr netsim.Transport, opts Options) *Runtime {
	r := &Runtime{
		tr:      tr,
		self:    tr.Addr(),
		opts:    opts.withDefaults(),
		exports: make(map[string]*export),
		pending: make(map[string]chan *wireMsg),
		proxies: make(map[string]*Proxy),
		done:    make(chan struct{}),
	}
	tr.SetHandler(r.onMessage)
	r.lc.Add(1)
	go r.gcLoop()
	return r
}

// Addr returns the runtime's transport address.
func (r *Runtime) Addr() string { return r.self }

// Close shuts the runtime down.
func (r *Runtime) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	close(r.done)
	r.mu.Unlock()
	r.lc.Wait()
	return nil
}

// --- server side ---

// Bind exports a receiver under a stable name as a collection root: it
// stays exported regardless of references (like an RMI registry entry).
func (r *Runtime) Bind(name string, recv any) error {
	return r.export(name, recv, true)
}

// Export exports a receiver subject to distributed garbage collection:
// it lives while references last (per the configured DGCMode). This is
// what happens implicitly when an object reference is passed out.
func (r *Runtime) Export(name string, recv any) error {
	return r.export(name, recv, false)
}

func (r *Runtime) export(name string, recv any, anchored bool) error {
	if recv == nil {
		return fmt.Errorf("rmi: export %q: nil receiver", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	if _, ok := r.exports[name]; ok {
		return fmt.Errorf("rmi: export %q: already bound", name)
	}
	r.exports[name] = &export{
		recv:     reflect.ValueOf(recv),
		anchored: anchored,
		refs:     make(map[string]time.Time),
	}
	return nil
}

// Unbind removes an export explicitly.
func (r *Runtime) Unbind(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.exports, name)
}

// Exported reports whether name is currently exported (test aid for
// the DGC experiments).
func (r *Runtime) Exported(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.exports[name]
	return ok
}

// RefTo returns a serializable reference to an export of this runtime.
func (r *Runtime) RefTo(name string) Ref {
	return Ref{Addr: r.self, Name: name}
}

// gcLoop retires unreferenced non-anchored exports.
func (r *Runtime) gcLoop() {
	defer r.lc.Done()
	tick := time.NewTicker(r.opts.LeaseDuration / 2)
	defer tick.Stop()
	for {
		select {
		case <-r.done:
			return
		case <-tick.C:
		}
		now := time.Now()
		r.mu.Lock()
		for name, ex := range r.exports {
			if ex.anchored {
				continue
			}
			if r.opts.DGC == DGCLeased {
				for client, last := range ex.refs {
					if now.Sub(last) > r.opts.LeaseDuration {
						delete(ex.refs, client)
					}
				}
			}
			// In DGCPinned mode references never expire: a crashed
			// client keeps the object alive forever — the paper's
			// caveat.
			if len(ex.refs) == 0 {
				delete(r.exports, name)
			}
		}
		r.mu.Unlock()
	}
}

// onMessage handles both server requests and client replies.
func (r *Runtime) onMessage(from string, payload []byte) {
	var m wireMsg
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&m); err != nil {
		r.opts.Logger.Warn("rmi: dropping undecodable message",
			"from", from, "bytes", len(payload), "err", err)
		return
	}
	switch m.Kind {
	case kindCall:
		reply := r.handleCall(&m)
		r.send(from, reply)
	case kindResult:
		r.mu.Lock()
		ch, ok := r.pending[m.ReqID]
		delete(r.pending, m.ReqID)
		r.mu.Unlock()
		if ok {
			ch <- &m
		}
	case kindAttach, kindRenew:
		r.mu.Lock()
		if ex, ok := r.exports[m.Target]; ok {
			ex.refs[m.Client] = time.Now()
		}
		r.mu.Unlock()
	case kindRelease:
		r.mu.Lock()
		if ex, ok := r.exports[m.Target]; ok {
			delete(ex.refs, m.Client)
		}
		r.mu.Unlock()
	}
}

// handleCall dispatches an invocation by reflection.
func (r *Runtime) handleCall(m *wireMsg) *wireMsg {
	reply := &wireMsg{Kind: kindResult, ReqID: m.ReqID}
	r.mu.Lock()
	ex, ok := r.exports[m.Target]
	r.mu.Unlock()
	if !ok {
		reply.Err = ErrNoSuchObject.Error() + ": " + m.Target
		return reply
	}
	method := ex.recv.MethodByName(m.Method)
	if !method.IsValid() {
		reply.Err = ErrNoSuchMethod.Error() + ": " + m.Method
		return reply
	}
	mt := method.Type()
	if mt.NumIn() != len(m.Args) {
		reply.Err = fmt.Sprintf("%v: %s takes %d args, got %d", ErrBadArguments, m.Method, mt.NumIn(), len(m.Args))
		return reply
	}
	in := make([]reflect.Value, len(m.Args))
	for i, raw := range m.Args {
		v := reflect.New(mt.In(i))
		if err := gob.NewDecoder(bytes.NewReader(raw)).DecodeValue(v); err != nil {
			reply.Err = fmt.Sprintf("%v: arg %d: %v", ErrBadArguments, i, err)
			return reply
		}
		in[i] = v.Elem()
	}
	// A variadic method's last argument travels as the slice it is.
	var out []reflect.Value
	if mt.IsVariadic() {
		out = method.CallSlice(in)
	} else {
		out = method.Call(in)
	}

	// A trailing error result travels in Err.
	if n := mt.NumOut(); n > 0 && mt.Out(n-1) == reflect.TypeOf((*error)(nil)).Elem() {
		if errV := out[n-1]; !errV.IsNil() {
			reply.Err = errV.Interface().(error).Error()
		}
		out = out[:n-1]
	}
	for _, v := range out {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).EncodeValue(v); err != nil {
			reply.Err = fmt.Sprintf("rmi: encode result: %v", err)
			return reply
		}
		reply.Results = append(reply.Results, buf.Bytes())
	}
	return reply
}

func (r *Runtime) send(to string, m *wireMsg) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		return
	}
	_ = r.tr.Send(to, buf.Bytes())
}

// --- client side ---

// Proxy is a client-side stub for a remote object (the analog of an
// rmic-generated stub). Obtain one with Dial or Resolve.
type Proxy struct {
	rt   *Runtime
	addr string
	name string

	mu       sync.Mutex
	released bool
	stopped  chan struct{}
}

// Dial returns a proxy for the object name exported at addr and
// registers the reference with the server's DGC.
func (r *Runtime) Dial(addr, name string) *Proxy {
	key := addr + "/" + name
	r.mu.Lock()
	if p, ok := r.proxies[key]; ok {
		r.mu.Unlock()
		return p
	}
	p := &Proxy{rt: r, addr: addr, name: name, stopped: make(chan struct{})}
	r.proxies[key] = p
	r.mu.Unlock()

	r.send(addr, &wireMsg{Kind: kindAttach, Target: name, Client: r.self})
	if r.opts.DGC == DGCLeased {
		r.lc.Add(1)
		go p.renewLoop()
	}
	return p
}

// Resolve turns a Ref (e.g. received inside an obvent) into a proxy.
func (r *Runtime) Resolve(ref Ref) *Proxy {
	return r.Dial(ref.Addr, ref.Name)
}

// Call synchronously invokes a remote method. results receives the
// non-error return values gob-decoded into the pointed-to variables:
//
//	var ok bool
//	err := proxy.Call("Buy", []any{"Telco", 80.0}, &ok)
func (p *Proxy) Call(method string, args []any, results ...any) error {
	r := p.rt
	m := &wireMsg{
		Kind:   kindCall,
		ReqID:  codec.NewID(),
		Target: p.name,
		Method: method,
		Client: r.self,
	}
	for i, a := range args {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).EncodeValue(reflect.ValueOf(a)); err != nil {
			return fmt.Errorf("rmi: encode arg %d: %w", i, err)
		}
		m.Args = append(m.Args, buf.Bytes())
	}

	ch := make(chan *wireMsg, 1)
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	r.pending[m.ReqID] = ch
	r.mu.Unlock()

	r.send(p.addr, m)

	var reply *wireMsg
	select {
	case reply = <-ch:
	case <-time.After(r.opts.CallTimeout):
		r.mu.Lock()
		delete(r.pending, m.ReqID)
		r.mu.Unlock()
		return fmt.Errorf("%w: %s.%s", ErrTimeout, p.name, method)
	}
	if reply.Err != "" {
		return remoteError(reply.Err)
	}
	if len(results) > len(reply.Results) {
		return fmt.Errorf("%w: %d results, want %d", ErrBadArguments, len(reply.Results), len(results))
	}
	for i, out := range results {
		v := reflect.ValueOf(out)
		if v.Kind() != reflect.Pointer || v.IsNil() {
			return fmt.Errorf("rmi: result %d must be a non-nil pointer", i)
		}
		if err := gob.NewDecoder(bytes.NewReader(reply.Results[i])).DecodeValue(v.Elem()); err != nil {
			return fmt.Errorf("rmi: decode result %d: %w", i, err)
		}
	}
	return nil
}

// Release drops the client's reference, letting the server collect the
// object once all references are gone.
func (p *Proxy) Release() {
	p.mu.Lock()
	if p.released {
		p.mu.Unlock()
		return
	}
	p.released = true
	close(p.stopped)
	p.mu.Unlock()

	p.rt.mu.Lock()
	delete(p.rt.proxies, p.addr+"/"+p.name)
	p.rt.mu.Unlock()
	p.rt.send(p.addr, &wireMsg{Kind: kindRelease, Target: p.name, Client: p.rt.self})
}

// renewLoop keeps the lease alive until Release or runtime close.
func (p *Proxy) renewLoop() {
	defer p.rt.lc.Done()
	tick := time.NewTicker(p.rt.opts.RenewInterval)
	defer tick.Stop()
	for {
		select {
		case <-p.stopped:
			return
		case <-p.rt.done:
			return
		case <-tick.C:
			p.rt.send(p.addr, &wireMsg{Kind: kindRenew, Target: p.name, Client: p.rt.self})
		}
	}
}

// remoteError maps a wire error string back to a sentinel when
// possible, so errors.Is works across the wire.
func remoteError(s string) error {
	for _, sentinel := range []error{ErrNoSuchObject, ErrNoSuchMethod, ErrBadArguments} {
		if strings.HasPrefix(s, sentinel.Error()) {
			return fmt.Errorf("%w%s", sentinel, strings.TrimPrefix(s, sentinel.Error()))
		}
	}
	return errors.New(s)
}
