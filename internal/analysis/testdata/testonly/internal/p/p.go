// Package p plants the cases the testonly guard must tell apart.
package p

import "net/http"

// Live is called from cmd/app through its import.
func Live() int { return helper() }

// Aliased is called from cmd/other through an aliased import.
func Aliased() {}

// Bare is called unqualified from p's own non-test code.
func Bare() {}

func helper() int {
	Bare()
	return 0
}

// Dead is called only from p_test.go: reported.
func Dead() {}

// Recursive calls only itself outside tests: reported.
func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// Helper is called only from tests but says why.
//
//otfair:testonly-ok fixture: a shared helper other packages' tests call
func Helper() {}

// T carries one method the program selects and one it never does.
type T struct{}

// LiveMethod is selected in cmd/app.
func (*T) LiveMethod() {}

// DeadMethod is selected only in p_test.go: reported.
func (*T) DeadMethod() {}

// E satisfies error; the standard library calls Error.
type E struct{}

func (E) Error() string { return "e" }

// H satisfies http.Handler; net/http calls ServeHTTP.
type H struct{}

func (H) ServeHTTP(http.ResponseWriter, *http.Request) {}
