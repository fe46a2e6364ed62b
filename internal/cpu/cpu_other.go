//go:build !amd64

package cpu

// AVX is always false off amd64.
const AVX = false
