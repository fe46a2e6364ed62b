// Package cpu probes the host CPU once at start-up for the instruction-set
// extensions the SIMD kernels in internal/kernel and internal/mat use. Each
// of those packages copies the flag into its own variable, which its tests
// clear to force the portable path.
package cpu
