// Package netsim is the public surface of the simulated network: an
// in-process transport fabric with configurable latency, loss,
// duplication, partitions and crashes, seeded for reproducibility. Use
// it to test distributed govents domains deterministically without
// sockets; govents.ListenTCP provides the real-TCP counterpart with
// the same Transport interface.
package netsim

import internal "govents/internal/netsim"

// Transport is the addressed, connectionless, best-effort messaging
// abstraction shared by simulated endpoints and the TCP transport;
// govents.Open's WithTransport accepts any implementation.
type Transport = internal.Transport

// Handler processes an inbound message. The payload is valid for the
// call only: a transport reuses its buffer once the handler returns, so
// a handler copies whatever it keeps. The simulated network writes
// poison over each delivered payload when its handler returns.
type Handler = internal.Handler

// Config controls the fault model of a simulated Network.
type Config = internal.Config

// Network is a simulated unreliable network.
type Network = internal.Network

// Endpoint is one simulated transport endpoint.
type Endpoint = internal.Endpoint

// ErrClosed is returned by operations on a closed network or endpoint.
var ErrClosed = internal.ErrClosed

// New creates a simulated network with the given fault model.
func New(cfg Config) *Network { return internal.New(cfg) }
