package accessor

import (
	"fmt"
	"reflect"
	"sync"

	"govents/internal/filter"
)

// getter calls one accessor of a registered class on an event of that
// class and normalizes the result exactly as filter.ValueOf does.
type getter func(event any) (filter.Constant, error)

// getters holds one table (method name -> getter) per registered
// class. A table depends on the class alone, so one process-wide
// registry serves every engine; it never changes once stored, so
// Compile reads it with no lock while Register stores other classes.
var getters sync.Map // reflect.Type -> map[string]getter

// Register builds T's getter table, once per class: a direct call for
// every value-receiver, niladic accessor of T whose result is an
// unnamed basic type. Programs compiled afterwards for the root type T
// resolve a path naming such an accessor without a reflect Call.
// Interface and pointer classes get no table. The generic subscribe
// entry points call it, since they know T statically.
func Register[T any]() {
	t := reflect.TypeFor[T]()
	if t.Kind() == reflect.Interface || t.Kind() == reflect.Pointer {
		return
	}
	if _, ok := getters.Load(t); ok {
		return
	}
	table := map[string]getter{}
	for i := range t.NumMethod() {
		m := t.Method(i)
		if g := typedGetter[T](m.Func.Interface(), m.Name); g != nil {
			table[m.Name] = g
		}
	}
	getters.LoadOrStore(t, table)
}

// typedGetter wraps a method expression with a basic result; any other
// shape (a named result type, parameters, more results) is nil.
func typedGetter[T any](fn any, name string) getter {
	switch f := fn.(type) {
	case func(T) bool:
		return direct(f, name, func(b bool) (filter.Constant, error) {
			return filter.Constant{Kind: filter.ConstBool, B: b}, nil
		})
	case func(T) string:
		return direct(f, name, func(s string) (filter.Constant, error) {
			return filter.Constant{Kind: filter.ConstString, S: s}, nil
		})
	case func(T) int:
		return direct(f, name, intConstant[int])
	case func(T) int8:
		return direct(f, name, intConstant[int8])
	case func(T) int16:
		return direct(f, name, intConstant[int16])
	case func(T) int32:
		return direct(f, name, intConstant[int32])
	case func(T) int64:
		return direct(f, name, intConstant[int64])
	case func(T) uint:
		return direct(f, name, filter.UintConstant[uint])
	case func(T) uint8:
		return direct(f, name, filter.UintConstant[uint8])
	case func(T) uint16:
		return direct(f, name, filter.UintConstant[uint16])
	case func(T) uint32:
		return direct(f, name, filter.UintConstant[uint32])
	case func(T) uint64:
		return direct(f, name, filter.UintConstant[uint64])
	case func(T) float32:
		return direct(f, name, floatConstant[float32])
	case func(T) float64:
		return direct(f, name, floatConstant[float64])
	}
	return nil
}

func intConstant[I int | int8 | int16 | int32 | int64](i I) (filter.Constant, error) {
	return filter.Constant{Kind: filter.ConstInt, I: int64(i)}, nil
}

func floatConstant[F float32 | float64](f F) (filter.Constant, error) {
	return filter.Constant{Kind: filter.ConstFloat, F: float64(f)}, nil
}

// direct is the getter calling f and normalizing its result with conv.
// It fails as the reflective step does: a panicking accessor is
// callMethod's error, a refused result Program.Constant's.
func direct[T, R any](f func(T) R, name string, conv func(R) (filter.Constant, error)) getter {
	return func(event any) (c filter.Constant, err error) {
		defer func() {
			if r := recover(); r != nil {
				c, err = filter.Constant{}, panicked(r)
			}
		}()
		if c, err = conv(f(event.(T))); err != nil {
			return filter.Constant{}, resultErr(name, err)
		}
		return c, nil
	}
}

func panicked(r any) error { return fmt.Errorf("accessor: accessor panicked: %v", r) }

func resultErr(path string, err error) error { return fmt.Errorf("accessor: path %s: %w", path, err) }
