package accessor

import (
	"fmt"
	"reflect"
	"sync"
	"unsafe"

	"govents/internal/filter"
)

// getter calls one accessor of a class on an event of that class and
// normalizes the result exactly as filter.ValueOf does.
type getter func(event any) (filter.Constant, error)

// getters holds one table (method name -> getter) per root class that
// Compile has seen. A table depends on the class alone, so one
// process-wide registry serves every engine; it never changes once
// stored, so matchers read it with no lock while Compile stores other
// classes.
var getters sync.Map // reflect.Type -> map[string]getter

// eface is the layout of an interface value with no methods (an any):
// its dynamic type and its data word.
type eface struct {
	typ, data unsafe.Pointer
}

// dataWord returns the data word of event: for a class that is not
// pointer-shaped, the address of the value the interface holds.
func dataWord(event *any) unsafe.Pointer { return (*eface)(unsafe.Pointer(event)).data }

// gettersFor returns t's getter table, building it on first use: a
// direct call for every value-receiver, niladic accessor of t whose
// result is an unnamed basic type. A pointer-shaped class (a pointer, a
// map, a struct holding one pointer and nothing else…), whose interface
// holds the value itself and not its address, gets an empty table: its
// accessors keep the reflective step.
func gettersFor(t reflect.Type) map[string]getter {
	if table, ok := getters.Load(t); ok {
		return table.(map[string]getter)
	}
	table := map[string]getter{}
	if !pointerShaped(t) {
		pt := reflect.PointerTo(t)
		for i := range t.NumMethod() {
			if m := t.Method(i); m.Type.NumIn() == 1 && m.Type.NumOut() == 1 {
				pm, _ := pt.MethodByName(m.Name)
				if g := getterOf(pm, m.Name); g != nil {
					table[m.Name] = g
				}
			}
		}
	}
	stored, _ := getters.LoadOrStore(t, table)
	return stored.(map[string]getter)
}

// pointerShaped reports whether an interface holding a t holds the
// value in its data word: a zero t then leaves the word nil, where any
// other class's points at the zero value.
func pointerShaped(t reflect.Type) bool {
	z := reflect.Zero(t).Interface()
	return dataWord(&z) == nil
}

// getterOf wraps pm, the pointer type's method of a value-receiver
// accessor with one result (its wrapper, which copies the value out of
// the pointer and calls the accessor), when that result is an unnamed
// basic type; any other result (a named type, a struct) is nil.
func getterOf(pm reflect.Method, name string) getter {
	method := pm.Func.Interface()
	fn := dataWord(&method)
	switch pm.Type.Out(0) {
	case reflect.TypeFor[bool]():
		return pointerGetter(fn, name, func(b bool) (filter.Constant, error) {
			return filter.Constant{Kind: filter.ConstBool, B: b}, nil
		})
	case reflect.TypeFor[string]():
		return pointerGetter(fn, name, func(s string) (filter.Constant, error) {
			return filter.Constant{Kind: filter.ConstString, S: s}, nil
		})
	case reflect.TypeFor[int]():
		return pointerGetter(fn, name, intConstant[int])
	case reflect.TypeFor[int8]():
		return pointerGetter(fn, name, intConstant[int8])
	case reflect.TypeFor[int16]():
		return pointerGetter(fn, name, intConstant[int16])
	case reflect.TypeFor[int32]():
		return pointerGetter(fn, name, intConstant[int32])
	case reflect.TypeFor[int64]():
		return pointerGetter(fn, name, intConstant[int64])
	case reflect.TypeFor[uint]():
		return pointerGetter(fn, name, filter.UintConstant[uint])
	case reflect.TypeFor[uint8]():
		return pointerGetter(fn, name, filter.UintConstant[uint8])
	case reflect.TypeFor[uint16]():
		return pointerGetter(fn, name, filter.UintConstant[uint16])
	case reflect.TypeFor[uint32]():
		return pointerGetter(fn, name, filter.UintConstant[uint32])
	case reflect.TypeFor[uint64]():
		return pointerGetter(fn, name, filter.UintConstant[uint64])
	case reflect.TypeFor[float32]():
		return pointerGetter(fn, name, floatConstant[float32])
	case reflect.TypeFor[float64]():
		return pointerGetter(fn, name, floatConstant[float64])
	}
	return nil
}

func intConstant[I int | int8 | int16 | int32 | int64](i I) (filter.Constant, error) {
	return filter.Constant{Kind: filter.ConstInt, I: int64(i)}, nil
}

func floatConstant[F float32 | float64](f F) (filter.Constant, error) {
	return filter.Constant{Kind: filter.ConstFloat, F: float64(f)}, nil
}

// pointerGetter is the getter calling fn, a method of *T with result R
// (a func value's word, which points at its code), on the address an
// event of class T is held at, and normalizing the result with conv. A
// func(*T) R and a func(unsafe.Pointer) R differ only in the pointer's
// type, so they share one calling convention; Program.Constant calls a
// getter only on an event whose class is T. It fails as the reflective
// step does: a panicking accessor is callMethod's error, a refused
// result Program.Constant's.
func pointerGetter[R any](fn unsafe.Pointer, name string, conv func(R) (filter.Constant, error)) getter {
	f := *(*func(unsafe.Pointer) R)(unsafe.Pointer(&fn))
	return func(event any) (c filter.Constant, err error) {
		defer func() {
			if r := recover(); r != nil {
				c, err = filter.Constant{}, panicked(r)
			}
		}()
		if c, err = conv(f(dataWord(&event))); err != nil {
			return filter.Constant{}, resultErr(name, err)
		}
		return c, nil
	}
}

func panicked(r any) error { return fmt.Errorf("accessor: accessor panicked: %v", r) }

func resultErr(path string, err error) error { return fmt.Errorf("accessor: path %s: %w", path, err) }
