package psc

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writePkg materializes a package in a temp dir.
func writePkg(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const stockSrc = `package stock

import (
	"strings"

	"govents/internal/obvent"
)

// StockObvent is the root obvent class.
type StockObvent struct {
	obvent.Base
	Company string
	Price   float64
	Amount  int
}

func (s StockObvent) GetCompany() string { return s.Company }
func (s StockObvent) GetPrice() float64  { return s.Price }

// StockQuote inherits obvent-ness by embedding.
type StockQuote struct {
	StockObvent
}

// Trade composes QoS semantics.
type Trade struct {
	obvent.Base
	obvent.CertifiedBase
	obvent.TotalOrderBase
	N int
}

// notExported obvents get no adapter.
type hidden struct {
	obvent.Base
}

// Plain structs are not obvents.
type Plain struct {
	X int
}

//psc:filter
func CheapTelco(q StockQuote) bool {
	return q.GetPrice() < 100 && strings.Contains(q.GetCompany(), "Telco")
}

//psc:filter
func Complex(q StockQuote) bool {
	return !(q.GetPrice() >= 500) || (q.Amount != 0 && 80 < q.GetPrice())
}

//psc:filter
func SpreadCheck(q StockQuote) bool {
	return q.GetPrice() > q.Price
}
`

const badFiltersSrc = `package stock

//psc:filter
func UsesFreeVariable(q StockQuote) bool {
	return q.GetPrice() < threshold
}

//psc:filter
func HasStatements(q StockQuote) bool {
	x := q.GetPrice()
	return x < 100
}

//psc:filter
func CallsForeignCode(q StockQuote) bool {
	return lookup(q.GetCompany()) == 1
}

//psc:filter
func ArgInAccessor(q StockQuote) bool {
	return q.PriceAt(3) < 100
}
`

func TestScanClasses(t *testing.T) {
	dir := writePkg(t, map[string]string{"stock.go": stockSrc})
	res, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Package != "stock" {
		t.Errorf("package = %q", res.Package)
	}
	var names []string
	for _, c := range res.Classes {
		names = append(names, c.Name)
	}
	want := []string{"StockObvent", "StockQuote", "Trade"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("classes = %v, want %v", names, want)
	}
	// QoS discovery.
	for _, c := range res.Classes {
		if c.Name == "Trade" {
			if strings.Join(c.QoS, ",") != "CertifiedBase,TotalOrderBase" {
				t.Errorf("Trade QoS = %v", c.QoS)
			}
		}
	}
}

func TestLiftPaperFilter(t *testing.T) {
	dir := writePkg(t, map[string]string{"stock.go": stockSrc})
	res, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]FilterFunc{}
	for _, f := range res.Filters {
		byName[f.Name] = f
	}

	cheap, ok := byName["CheapTelco"]
	if !ok {
		t.Fatalf("CheapTelco not lifted; violations: %v", res.Violations)
	}
	want := `filter.And(filter.Path("GetPrice").Lt(filter.Int(100)), filter.Path("GetCompany").Contains(filter.Str("Telco")))`
	if cheap.ExprSrc != want {
		t.Errorf("CheapTelco lifted to\n%s\nwant\n%s", cheap.ExprSrc, want)
	}

	cx, ok := byName["Complex"]
	if !ok {
		t.Fatalf("Complex not lifted")
	}
	for _, frag := range []string{"filter.Not(", "filter.Or(", `filter.Path("Amount").Ne(filter.Int(0))`, `filter.Path("GetPrice").Gt(filter.Int(80))`} {
		if !strings.Contains(cx.ExprSrc, frag) {
			t.Errorf("Complex missing %q:\n%s", frag, cx.ExprSrc)
		}
	}

	spread, ok := byName["SpreadCheck"]
	if !ok {
		t.Fatalf("SpreadCheck not lifted")
	}
	if spread.ExprSrc != `filter.Path("GetPrice").Gt(filter.Path("Price"))` {
		t.Errorf("SpreadCheck = %s", spread.ExprSrc)
	}
}

func TestMobilityViolations(t *testing.T) {
	dir := writePkg(t, map[string]string{"stock.go": stockSrc, "bad.go": badFiltersSrc})
	res, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, v := range res.Violations {
		got[v.Func] = v.Reason
	}
	wantFuncs := map[string]string{
		"UsesFreeVariable": "free variable",
		"HasStatements":    "single return statement",
		"CallsForeignCode": "comparison must involve the obvent parameter",
		"ArgInAccessor":    "comparison must involve the obvent parameter",
	}
	for fn, frag := range wantFuncs {
		reason, ok := got[fn]
		if !ok {
			t.Errorf("%s: expected a violation", fn)
			continue
		}
		if !strings.Contains(reason, frag) {
			t.Errorf("%s: reason %q missing %q", fn, reason, frag)
		}
	}
	// Violating filters are not lifted.
	for _, f := range res.Filters {
		if _, bad := wantFuncs[f.Name]; bad {
			t.Errorf("%s lifted despite violation", f.Name)
		}
	}
}

func TestViolationPositions(t *testing.T) {
	dir := writePkg(t, map[string]string{"stock.go": stockSrc, "bad.go": badFiltersSrc})
	res, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		if v.Pos.Filename == "" || v.Pos.Line == 0 {
			t.Errorf("%s: violation lacks a source position: %v", v.Func, v)
		}
		if !strings.Contains(v.Error(), v.Func) {
			t.Errorf("Error() should name the function: %s", v.Error())
		}
	}
}

func TestGenerate(t *testing.T) {
	dir := writePkg(t, map[string]string{"stock.go": stockSrc})
	res, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Generate(res)
	if err != nil {
		t.Fatal(err)
	}
	src := string(out)
	for _, frag := range []string{
		"Code generated by psc",
		"package stock",
		"type StockQuoteAdapter struct",
		"func NewStockQuoteAdapter(d *govents.Domain) StockQuoteAdapter",
		"func (a StockQuoteAdapter) Publish(ctx context.Context, o StockQuote) error",
		"func (a StockQuoteAdapter) Subscribe(f *filter.Expr, handler func(StockQuote)) (*govents.Subscription, error)",
		"func (a StockQuoteAdapter) SubscribeInactive(f *filter.Expr, handler func(StockQuote)) (*govents.Subscription, error)",
		"func (a TradeAdapter) SubscribeLocal(pred func(Trade) bool, handler func(Trade))",
		"CertifiedBase, TotalOrderBase",
		"func CheapTelcoExpr() *filter.Expr",
	} {
		if !strings.Contains(src, frag) {
			t.Errorf("generated code missing %q", frag)
		}
	}
	if strings.Contains(src, "hiddenAdapter") {
		t.Error("unexported obvents must not get adapters")
	}
	if strings.Contains(src, "PlainAdapter") {
		t.Error("non-obvent structs must not get adapters")
	}
	for _, absent := range []string{"func init", "Wire"} {
		if strings.Contains(src, absent) {
			t.Errorf("generated code must not contain %q: psc emits adapters and filters only", absent)
		}
	}
}

// TestStocktradingGeneratedFresh regenerates the stocktrading example
// and requires the committed psc_generated.go byte for byte: the
// generator and its committed output must not drift apart.
func TestStocktradingGeneratedFresh(t *testing.T) {
	const dir = "../../examples/stocktrading"
	res, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) > 0 {
		t.Fatalf("example filters violate mobility restrictions: %v", res.Violations)
	}
	want, err := Generate(res)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "psc_generated.go"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("examples/stocktrading/psc_generated.go is stale; rerun: go run ./cmd/psc -dir ./examples/stocktrading")
	}
}

func TestScanErrors(t *testing.T) {
	if _, err := Scan(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("missing dir must fail")
	}
	dir := writePkg(t, map[string]string{"broken.go": "package x\nfunc {"})
	if _, err := Scan(dir); err == nil {
		t.Error("unparsable source must fail")
	}
}
