// Code generated by psc; DO NOT EDIT.
//
// Typed adapters in the mold of the paper's Figure 6: one XxxAdapter
// per obvent class, plus lifted filter expressions (§4.4.3).

package main

import (
	"context"

	"govents"
	"govents/filter"
)

// MarketPriceAdapter is the typed adapter for obvent class MarketPrice.
// Composed QoS semantics: ReliableBase.
type MarketPriceAdapter struct {
	domain *govents.Domain
}

// NewMarketPriceAdapter binds the adapter to a domain.
func NewMarketPriceAdapter(d *govents.Domain) MarketPriceAdapter {
	d.Registry().MustRegister(MarketPrice{})
	return MarketPriceAdapter{domain: d}
}

// Publish publishes an instance of MarketPrice.
func (a MarketPriceAdapter) Publish(ctx context.Context, o MarketPrice) error {
	return a.domain.Publish(ctx, o)
}

// Subscribe subscribes to MarketPrice (and its subtypes) with a migratable
// filter; the subscription is returned active.
func (a MarketPriceAdapter) Subscribe(f *filter.Expr, handler func(MarketPrice)) (*govents.Subscription, error) {
	return govents.Subscribe(a.domain, f, handler)
}

// SubscribeInactive is Subscribe in the paper's two-phase form: the
// subscription receives nothing until Activate is called.
func (a MarketPriceAdapter) SubscribeInactive(f *filter.Expr, handler func(MarketPrice)) (*govents.Subscription, error) {
	return govents.SubscribeInactive(a.domain, f, handler)
}

// SubscribeLocal subscribes with an opaque local predicate; the
// subscription is returned active.
func (a MarketPriceAdapter) SubscribeLocal(pred func(MarketPrice) bool, handler func(MarketPrice)) (*govents.Subscription, error) {
	return govents.SubscribeLocal(a.domain, pred, handler)
}

// SpotPriceAdapter is the typed adapter for obvent class SpotPrice.
// Composed QoS semantics: default (unreliable, unordered).
type SpotPriceAdapter struct {
	domain *govents.Domain
}

// NewSpotPriceAdapter binds the adapter to a domain.
func NewSpotPriceAdapter(d *govents.Domain) SpotPriceAdapter {
	d.Registry().MustRegister(SpotPrice{})
	return SpotPriceAdapter{domain: d}
}

// Publish publishes an instance of SpotPrice.
func (a SpotPriceAdapter) Publish(ctx context.Context, o SpotPrice) error {
	return a.domain.Publish(ctx, o)
}

// Subscribe subscribes to SpotPrice (and its subtypes) with a migratable
// filter; the subscription is returned active.
func (a SpotPriceAdapter) Subscribe(f *filter.Expr, handler func(SpotPrice)) (*govents.Subscription, error) {
	return govents.Subscribe(a.domain, f, handler)
}

// SubscribeInactive is Subscribe in the paper's two-phase form: the
// subscription receives nothing until Activate is called.
func (a SpotPriceAdapter) SubscribeInactive(f *filter.Expr, handler func(SpotPrice)) (*govents.Subscription, error) {
	return govents.SubscribeInactive(a.domain, f, handler)
}

// SubscribeLocal subscribes with an opaque local predicate; the
// subscription is returned active.
func (a SpotPriceAdapter) SubscribeLocal(pred func(SpotPrice) bool, handler func(SpotPrice)) (*govents.Subscription, error) {
	return govents.SubscribeLocal(a.domain, pred, handler)
}

// StockObventAdapter is the typed adapter for obvent class StockObvent.
// Composed QoS semantics: default (unreliable, unordered).
type StockObventAdapter struct {
	domain *govents.Domain
}

// NewStockObventAdapter binds the adapter to a domain.
func NewStockObventAdapter(d *govents.Domain) StockObventAdapter {
	d.Registry().MustRegister(StockObvent{})
	return StockObventAdapter{domain: d}
}

// Publish publishes an instance of StockObvent.
func (a StockObventAdapter) Publish(ctx context.Context, o StockObvent) error {
	return a.domain.Publish(ctx, o)
}

// Subscribe subscribes to StockObvent (and its subtypes) with a migratable
// filter; the subscription is returned active.
func (a StockObventAdapter) Subscribe(f *filter.Expr, handler func(StockObvent)) (*govents.Subscription, error) {
	return govents.Subscribe(a.domain, f, handler)
}

// SubscribeInactive is Subscribe in the paper's two-phase form: the
// subscription receives nothing until Activate is called.
func (a StockObventAdapter) SubscribeInactive(f *filter.Expr, handler func(StockObvent)) (*govents.Subscription, error) {
	return govents.SubscribeInactive(a.domain, f, handler)
}

// SubscribeLocal subscribes with an opaque local predicate; the
// subscription is returned active.
func (a StockObventAdapter) SubscribeLocal(pred func(StockObvent) bool, handler func(StockObvent)) (*govents.Subscription, error) {
	return govents.SubscribeLocal(a.domain, pred, handler)
}

// StockQuoteAdapter is the typed adapter for obvent class StockQuote.
// Composed QoS semantics: default (unreliable, unordered).
type StockQuoteAdapter struct {
	domain *govents.Domain
}

// NewStockQuoteAdapter binds the adapter to a domain.
func NewStockQuoteAdapter(d *govents.Domain) StockQuoteAdapter {
	d.Registry().MustRegister(StockQuote{})
	return StockQuoteAdapter{domain: d}
}

// Publish publishes an instance of StockQuote.
func (a StockQuoteAdapter) Publish(ctx context.Context, o StockQuote) error {
	return a.domain.Publish(ctx, o)
}

// Subscribe subscribes to StockQuote (and its subtypes) with a migratable
// filter; the subscription is returned active.
func (a StockQuoteAdapter) Subscribe(f *filter.Expr, handler func(StockQuote)) (*govents.Subscription, error) {
	return govents.Subscribe(a.domain, f, handler)
}

// SubscribeInactive is Subscribe in the paper's two-phase form: the
// subscription receives nothing until Activate is called.
func (a StockQuoteAdapter) SubscribeInactive(f *filter.Expr, handler func(StockQuote)) (*govents.Subscription, error) {
	return govents.SubscribeInactive(a.domain, f, handler)
}

// SubscribeLocal subscribes with an opaque local predicate; the
// subscription is returned active.
func (a StockQuoteAdapter) SubscribeLocal(pred func(StockQuote) bool, handler func(StockQuote)) (*govents.Subscription, error) {
	return govents.SubscribeLocal(a.domain, pred, handler)
}

// StockRequestAdapter is the typed adapter for obvent class StockRequest.
// Composed QoS semantics: default (unreliable, unordered).
type StockRequestAdapter struct {
	domain *govents.Domain
}

// NewStockRequestAdapter binds the adapter to a domain.
func NewStockRequestAdapter(d *govents.Domain) StockRequestAdapter {
	d.Registry().MustRegister(StockRequest{})
	return StockRequestAdapter{domain: d}
}

// Publish publishes an instance of StockRequest.
func (a StockRequestAdapter) Publish(ctx context.Context, o StockRequest) error {
	return a.domain.Publish(ctx, o)
}

// Subscribe subscribes to StockRequest (and its subtypes) with a migratable
// filter; the subscription is returned active.
func (a StockRequestAdapter) Subscribe(f *filter.Expr, handler func(StockRequest)) (*govents.Subscription, error) {
	return govents.Subscribe(a.domain, f, handler)
}

// SubscribeInactive is Subscribe in the paper's two-phase form: the
// subscription receives nothing until Activate is called.
func (a StockRequestAdapter) SubscribeInactive(f *filter.Expr, handler func(StockRequest)) (*govents.Subscription, error) {
	return govents.SubscribeInactive(a.domain, f, handler)
}

// SubscribeLocal subscribes with an opaque local predicate; the
// subscription is returned active.
func (a StockRequestAdapter) SubscribeLocal(pred func(StockRequest) bool, handler func(StockRequest)) (*govents.Subscription, error) {
	return govents.SubscribeLocal(a.domain, pred, handler)
}

// BulkOffersExpr is the migratable form of filter BulkOffers (lifted by psc).
func BulkOffersExpr() *filter.Expr {
	return filter.And(filter.Path("GetAmount").Ge(filter.Int(50)), filter.Path("GetPrice").Lt(filter.Int(500)))
}

// CheapTelcoExpr is the migratable form of filter CheapTelco (lifted by psc).
func CheapTelcoExpr() *filter.Expr {
	return filter.And(filter.Path("GetPrice").Lt(filter.Int(100)), filter.Path("GetCompany").Contains(filter.Str("Telco")))
}
