// Package rmi implements remote method invocation in the style of Java
// RMI, the paradigm the paper pairs with publish/subscribe (§5.4): "a
// combination of both represents a very powerful tool for devising
// distributed applications, e.g., by passing object references with
// obvents." A server Binds named receivers; a client Dials proxies and
// invokes methods by name (reflection plays rmic's skeletons). A Ref
// can travel inside an obvent: in the paper's Figure 8 a stock quote
// carries a reference to the market, on which a broker then buys.
//
// Calls, results and lease messages are records on one reliable link
// (stream "rmi"), encoded by internal/wire programs: on a distributed
// domain the link is the node's and resends to the node's view; the
// runtime New makes has a link with no members, which sends once. An
// argument travels as its dynamic type and decodes as the parameter's;
// an interface field in either holds a class of the runtime's registry.
//
// Distributed garbage collection is modeled both ways the paper
// discusses (DGCMode): the Java RMI caveat of §5.4.2, and the "weaker"
// lease-based scheme of [CNH99] the paper suggests as the fix.
package rmi

import (
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"reflect"
	"slices"
	"strings"
	"sync"
	"time"

	"govents/internal/clock"
	"govents/internal/multicast"
	"govents/internal/netsim"
	"govents/internal/obvent"
	"govents/internal/wire"
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

// Stream is the name of a runtime's link on its multiplexer.
const Stream = "rmi"

// Ref is a serializable remote reference: the value placed inside
// obvents when passing objects by reference (paper §5.4.1). Resolve it
// against a local Runtime to obtain an invocable Proxy.
type Ref struct {
	Addr string // server transport address
	Name string // exported object name
}

// kind is a record's kind.
type kind byte

const (
	kindCall kind = iota + 1
	kindResult
	kindLease   // take or renew a lease on an exported object (DGC)
	kindRelease // drop a reference explicitly
)

// record is the single request/response record; the link names its
// sender. Values are a call's arguments or a result's results.
type record struct {
	Kind   kind
	ReqID  uint64 // a call's number in its caller's runtime, which its result names
	Target string
	Method string
	Values [][]byte
	Err    string
}

var recordProg = func() *wire.Prog {
	p, err := wire.Compile(reflect.TypeFor[record](), nil)
	if err != nil {
		panic(err)
	}
	return p
}()

// Options tunes a Runtime.
type Options struct {
	// DGC selects the garbage-collection scheme (default DGCLeased).
	DGC DGCMode
	// LeaseDuration is how long an unrenewed reference survives in
	// DGCLeased mode (default 200ms — short, for simulation scale).
	LeaseDuration time.Duration
	// RenewInterval is the client-side lease renewal period, and the
	// server's collection period (default LeaseDuration/4).
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
// client (proxies) share the link.
type Runtime struct {
	link  *multicast.Reliable
	self  string
	clock clock.Clock
	reg   *obvent.Registry
	progs sync.Map // reflect.Type -> its *wire.Prog
	opts  Options

	// leases renews the proxies' leases and collects exports, armed while
	// there is either to do.
	leases clock.Job

	mu      sync.Mutex
	exports map[string]*export
	pending map[uint64]chan *record // reqID -> reply
	reqs    uint64                  // the calls numbered
	proxies map[Ref]*Proxy
	armed   bool // leases is armed, or running
	closed  bool

	calls sync.WaitGroup // invocations running
	// tokens holds one token per invocation that may start: none until
	// the link is open, then maxInvocations less those running.
	tokens chan struct{}
}

// maxInvocations bounds the invocations a runtime runs at once: a call
// past it waits, on the link's delivery goroutine, for one to return.
const maxInvocations = 64

// export is one remotely accessible object.
type export struct {
	recv     reflect.Value
	anchored bool                 // Bind roots are never collected
	refs     map[string]time.Time // client -> last renewal
}

// New creates an RMI runtime over a transport endpoint of its own, on
// the wall clock.
func New(tr netsim.Transport, opts Options) *Runtime {
	mux := multicast.NewMux(tr)
	return Attach(tr.Addr(), func(deliver multicast.Deliver) *multicast.Reliable {
		return multicast.NewReliable(mux, Stream, deliver, multicast.Options{Logger: opts.Logger})
	}, clock.Real{}, nil, opts)
}

// Attach creates an RMI runtime at node address addr, on the link open
// opens with the runtime's upcall and on the node's clock c. Interface
// fields of arguments and results hold classes of reg (nil: none).
func Attach(addr string, open func(multicast.Deliver) *multicast.Reliable, c clock.Clock, reg *obvent.Registry, opts Options) *Runtime {
	r := &Runtime{
		self:    addr,
		clock:   c,
		reg:     reg,
		opts:    opts.withDefaults(),
		exports: make(map[string]*export),
		pending: make(map[uint64]chan *record),
		proxies: make(map[Ref]*Proxy),
		tokens:  make(chan struct{}, maxInvocations),
	}
	r.leases.Init(c, r.renewAndCollect)
	r.link = open(r.onRecord)
	for range maxInvocations {
		r.tokens <- struct{}{}
	}
	return r
}

// Addr returns the runtime's transport address.
func (r *Runtime) Addr() string { return r.self }

// Close shuts the runtime down once the invocations running here have
// returned.
func (r *Runtime) Close() error {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.leases.Stop()
	err := r.link.Close() // no record arrives once it returns
	r.calls.Wait()
	return err
}

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
	if !anchored {
		r.armLocked()
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

// armLocked arms leases unless it is armed. Caller holds mu.
func (r *Runtime) armLocked() {
	if !r.armed {
		r.armed = true
		r.leases.Reset(r.opts.RenewInterval)
	}
}

// renewAndCollect renews the lease of every proxy (DGCLeased) and
// retires unreferenced exports, and re-arms while it has either to do.
func (r *Runtime) renewAndCollect() {
	now := r.clock.Now()
	leased := r.opts.DGC == DGCLeased
	var renew []Ref
	r.mu.Lock()
	if leased {
		renew = slices.Collect(maps.Keys(r.proxies))
	}
	r.armed = len(renew) > 0
	for name, ex := range r.exports {
		if ex.anchored {
			continue
		}
		if leased {
			maps.DeleteFunc(ex.refs, func(_ string, last time.Time) bool { return now.Sub(last) > r.opts.LeaseDuration })
		}
		// In DGCPinned mode references never expire: a crashed
		// client keeps the object alive forever — the paper's
		// caveat.
		if len(ex.refs) == 0 {
			delete(r.exports, name)
		} else {
			r.armed = true
		}
	}
	if r.armed {
		r.leases.Reset(r.opts.RenewInterval)
	}
	r.mu.Unlock()
	for _, ref := range renew {
		_ = r.send(ref.Addr, &record{Kind: kindLease, Target: ref.Name})
	}
}

// onRecord is the link's upcall: it handles both server requests and
// client replies. An invocation runs on a goroutine of its own, so a
// slow method holds up no delivery while fewer than maxInvocations run.
func (r *Runtime) onRecord(from string, payload []byte) {
	var m record
	if err := recordProg.Decode(payload, reflect.ValueOf(&m).Elem()); err != nil {
		r.opts.Logger.Warn("rmi: dropping undecodable message",
			"from", from, "bytes", len(payload), "err", err)
		return
	}
	if m.Kind == kindCall {
		<-r.tokens
		r.calls.Add(1)
		go func() {
			defer r.calls.Done()
			_ = r.send(from, r.handleCall(&m))
			r.tokens <- struct{}{}
		}()
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	switch m.Kind {
	case kindResult:
		if ch, ok := r.pending[m.ReqID]; ok {
			delete(r.pending, m.ReqID)
			ch <- &m
		}
	case kindLease:
		if ex, ok := r.exports[m.Target]; ok {
			ex.refs[from] = r.clock.Now()
		}
	case kindRelease:
		if ex, ok := r.exports[m.Target]; ok {
			delete(ex.refs, from)
		}
	}
}

// handleCall dispatches an invocation by reflection.
func (r *Runtime) handleCall(m *record) *record {
	reply := &record{Kind: kindResult, ReqID: m.ReqID}
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
	if mt.NumIn() != len(m.Values) {
		reply.Err = fmt.Sprintf("%v: %s takes %d args, got %d", ErrBadArguments, m.Method, mt.NumIn(), len(m.Values))
		return reply
	}
	in := make([]reflect.Value, len(m.Values))
	for i := range in {
		in[i] = reflect.New(mt.In(i)).Elem()
	}
	if err := r.decode(m.Values, in, "arg"); err != nil {
		reply.Err = fmt.Sprintf("%v: %v", ErrBadArguments, err)
		return reply
	}
	// A variadic method's last argument travels as the slice it is.
	call := method.Call
	if mt.IsVariadic() {
		call = method.CallSlice
	}
	out := call(in)

	// A trailing error result travels in Err.
	if n := mt.NumOut(); n > 0 && mt.Out(n-1) == reflect.TypeFor[error]() {
		if errV := out[n-1]; !errV.IsNil() {
			reply.Err = errV.Interface().(error).Error()
		}
		out = out[:n-1]
	}
	var err error
	if reply.Values, err = r.encode(out, "result"); err != nil {
		reply.Err = err.Error()
	}
	return reply
}

// send sends m to to on the link.
func (r *Runtime) send(to string, m *record) error {
	payload, err := recordProg.Append(nil, reflect.ValueOf(m).Elem())
	if err != nil {
		return err
	}
	return r.link.BroadcastTo([]string{to}, payload)
}

// prog returns the wire program of v's type, compiled once.
func (r *Runtime) prog(v reflect.Value) (*wire.Prog, error) {
	if !v.IsValid() {
		return nil, errors.New("a nil interface does not travel")
	}
	t := v.Type()
	if p, ok := r.progs.Load(t); ok {
		return p.(*wire.Prog), nil
	}
	p, err := wire.CompileValue(t, r.reg)
	if err == nil {
		r.progs.Store(t, p)
	}
	return p, err
}

// encode encodes each of vs, the what of the call, as its type.
func (r *Runtime) encode(vs []reflect.Value, what string) ([][]byte, error) {
	raws := make([][]byte, len(vs))
	for i, v := range vs {
		p, err := r.prog(v)
		if err == nil {
			raws[i], err = p.Append(nil, v)
		}
		if err != nil {
			return nil, fmt.Errorf("rmi: encode %s %d: %w", what, i, err)
		}
	}
	return raws, nil
}

// decode decodes raws into vs, which are settable.
func (r *Runtime) decode(raws [][]byte, vs []reflect.Value, what string) error {
	for i, v := range vs {
		p, err := r.prog(v)
		if err == nil {
			err = p.Decode(raws[i], v)
		}
		if err != nil {
			return fmt.Errorf("rmi: decode %s %d: %w", what, i, err)
		}
	}
	return nil
}

// Proxy is a client-side stub for a remote object (the analog of an
// rmic-generated stub). Obtain one with Dial or Resolve.
type Proxy struct {
	rt  *Runtime
	ref Ref
}

// Dial returns a proxy for the object name exported at addr and
// registers the reference with the server's DGC.
func (r *Runtime) Dial(addr, name string) *Proxy {
	ref := Ref{Addr: addr, Name: name}
	r.mu.Lock()
	p, ok := r.proxies[ref]
	if !ok {
		p = &Proxy{rt: r, ref: ref}
		r.proxies[ref] = p
		if r.opts.DGC == DGCLeased {
			r.armLocked()
		}
	}
	r.mu.Unlock()
	if !ok {
		_ = r.send(addr, &record{Kind: kindLease, Target: name})
	}
	return p
}

// Resolve turns a Ref (e.g. received inside an obvent) into a proxy.
func (r *Runtime) Resolve(ref Ref) *Proxy {
	return r.Dial(ref.Addr, ref.Name)
}

// Call synchronously invokes a remote method. results receives the
// non-error return values decoded into the pointed-to variables:
//
//	var ok bool
//	err := proxy.Call("Buy", []any{"Telco", 80.0}, &ok)
func (p *Proxy) Call(method string, args []any, results ...any) error {
	r := p.rt
	m := &record{Kind: kindCall, Target: p.ref.Name, Method: method}
	vs := make([]reflect.Value, len(args))
	for i, a := range args {
		vs[i] = reflect.ValueOf(a)
	}
	var err error
	if m.Values, err = r.encode(vs, "arg"); err != nil {
		return err
	}

	ch := make(chan *record, 1)
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	r.reqs++
	m.ReqID = r.reqs
	r.pending[m.ReqID] = ch
	r.mu.Unlock()
	expired := make(chan struct{})
	timeout := r.clock.AfterFunc(r.opts.CallTimeout, func() { close(expired) })
	defer timeout.Stop()

	err = r.send(p.ref.Addr, m)
	var reply *record
	if err == nil {
		select {
		case reply = <-ch:
		case <-expired:
			err = fmt.Errorf("%w: %s.%s", ErrTimeout, p.ref.Name, method)
		}
	}
	r.mu.Lock()
	delete(r.pending, m.ReqID)
	r.mu.Unlock()
	switch {
	case err != nil:
		return err
	case reply.Err != "":
		return remoteError(reply.Err)
	case len(results) > len(reply.Values):
		return fmt.Errorf("%w: %d results, want %d", ErrBadArguments, len(reply.Values), len(results))
	}
	vs = make([]reflect.Value, len(results))
	for i, out := range results {
		v := reflect.ValueOf(out)
		if v.Kind() != reflect.Pointer || v.IsNil() {
			return fmt.Errorf("rmi: result %d must be a non-nil pointer", i)
		}
		vs[i] = v.Elem()
	}
	return r.decode(reply.Values, vs, "result")
}

// Release drops the client's reference, letting the server collect the
// object once all references are gone.
func (p *Proxy) Release() {
	r := p.rt
	r.mu.Lock()
	live := r.proxies[p.ref] == p
	if live {
		delete(r.proxies, p.ref)
	}
	r.mu.Unlock()
	if live {
		_ = r.send(p.ref.Addr, &record{Kind: kindRelease, Target: p.ref.Name})
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
