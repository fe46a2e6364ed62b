//go:build amd64

package mat

// panelKernels runs f once per panelDots backend: with the AVX kernel when
// the host has it, then with the Go kernel.
func panelKernels(f func(kernel string)) {
	avx := useAVX
	defer func() { useAVX = avx }()
	if avx {
		f("avx")
	}
	useAVX = false
	f("go")
}
