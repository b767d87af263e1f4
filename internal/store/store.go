// Package store is what is left of the in-memory certified log, which
// internal/durable now is on both backends: the names the benchmark
// harness under bench/ still calls. ROADMAP item 4 moves the harness
// onto internal/durable and deletes this package.
package store

import "govents/internal/durable"

type Entry = durable.Entry

// NewMemLog returns durable.NewMemOutbox().
func NewMemLog() *durable.Outbox { return durable.NewMemOutbox() }

// NewMemSet returns durable.NewMemInbox().
func NewMemSet() *durable.Inbox { return durable.NewMemInbox() }
