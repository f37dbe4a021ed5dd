// Package hotpath exercises the hotpathalloc analyzer: allocating
// constructs inside //nyquist:hotpath functions and their callees are
// flagged; cold functions, suppressed sites, and compiler-optimized
// conversion positions are not.
package hotpath

import (
	"fmt"

	"hotpathdep"
)

var global []int

var scratch []byte

//nyquist:hotpath
func HotFn(buf []byte, m map[string]int) string {
	s := fmt.Sprintf("x")      // want `hot path: call to fmt.Sprintf allocates`
	s = s + "y"                // want `hot path: string concatenation allocates`
	f := func() {}             // want `hot path: function literal allocates a closure`
	b := make([]byte, 8)       // want `hot path: make allocates`
	xs := []int{1, 2}          // want `hot path: slice literal allocates`
	global = append(global, 1) // want `hot path: append grows package-level slice global`
	sink(42)                   // want `hot path: interface conversion of non-pointer value allocates`
	_ = same(42)               // a type parameter boxes nothing
	helper()
	if v, ok := m[string(buf)]; ok { // optimized lookup: no copy
		_ = v
	}
	if string(buf) == "k" { // optimized comparison: no copy
		_ = b
	}
	m[string(buf)] = 1 // want `hot path: string\(\[\]byte\) conversion copies`
	buf = append(buf, 'x')
	other := append(buf, 'y') // want `hot path: append result assigned to a different slice than it grows`
	_, _, _ = f, xs, other
	return s
}

func helper() {
	p := new(int) // want `hot path: new allocates \(helper is on the hot path of HotFn\)`
	_ = p
}

//nyquist:hotpath
func HotSuppressed(n int) {
	if n > cap(scratch) {
		//nyquist:allow-alloc grow path runs once per resize
		scratch = make([]byte, n)
	}
}

//nyquist:hotpath
func HotNoReason() {
	//nyquist:allow-alloc
	q := make([]int, 1) // want `nyquist:allow-alloc suppression needs a reason`
	_ = q
}

//nyquist:hotpath
func HotCrossPkg() {
	_ = hotpathdep.Clean(1)
	_ = hotpathdep.Alloc() // want `hot path: call to hotpathdep.Alloc allocates`
}

// Cold is unannotated and unreachable from a hot root: its
// allocations are legal.
func Cold() string {
	return fmt.Sprintf("cold %d", 1)
}

func sink(v interface{}) { _ = v }

func same[T any](v T) T { return v }
