//go:build !amd64

package mat

// panelKernels runs f with the only panelDots backend off amd64.
func panelKernels(f func(kernel string)) { f("go") }
