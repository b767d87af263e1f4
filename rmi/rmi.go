// Package rmi is the public surface of the remote-method-invocation
// substrate (paper §5.4): the synchronous interaction paradigm the
// paper positions as complementary to publish/subscribe. Ref values
// travel inside obvents, enabling the paper's Figure 8 scenario — a
// stock quote carries a reference to the market on which a broker then
// synchronously buys. Every distributed govents Domain has a Runtime
// (Domain.RMI) that shares the domain's transport; New runs one
// standalone over a transport endpoint of its own.
package rmi

import (
	"govents/internal/netsim"
	internal "govents/internal/rmi"
)

// Runtime is one process's RMI endpoint: it exports objects under
// names (Bind) and invokes remote ones through proxies (Dial, Resolve).
type Runtime = internal.Runtime

// Options tunes a Runtime (DGC mode, lease periods, call timeout).
type Options = internal.Options

// Proxy is an invocable handle on a remote object.
type Proxy = internal.Proxy

// Ref is a serializable remote reference — the value placed inside
// obvents when passing objects by reference (paper §5.4.1).
type Ref = internal.Ref

// DGCMode selects the distributed garbage collection scheme.
type DGCMode = internal.DGCMode

// DGC schemes: pinned reproduces the Java RMI caveat the paper
// criticizes (§5.4.2); leased implements the [CNH99] remedy.
const (
	DGCPinned = internal.DGCPinned
	DGCLeased = internal.DGCLeased
)

// Errors returned by remote invocations.
var (
	ErrNoSuchObject = internal.ErrNoSuchObject
	ErrNoSuchMethod = internal.ErrNoSuchMethod
	ErrBadArguments = internal.ErrBadArguments
	ErrTimeout      = internal.ErrTimeout
	ErrClosed       = internal.ErrClosed
)

// New creates an RMI runtime over a transport endpoint.
func New(tr netsim.Transport, opts Options) *Runtime { return internal.New(tr, opts) }
