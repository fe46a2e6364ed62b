//go:build amd64

package main

// cpuid executes the CPUID instruction with the given leaf/subleaf.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (only called when CPUID reports
// OSXSAVE).
func xgetbv() (eax, edx uint32)

// fmaAVX runs n iterations of ten independent 4-lane VFMADD chains
// acc = acc·c[0] + c[1] and returns the sum of the lanes.
//
//go:noescape
func fmaAVX(n int, c *[2]float64) float64

// hasFMA reports whether the CPU and OS support 256-bit FMA.
var hasFMA = func() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 1 {
		return false
	}
	const fmaBit, osxsaveBit, avxBit = 1 << 12, 1 << 27, 1 << 28
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&fmaBit == 0 || ecx&osxsaveBit == 0 || ecx&avxBit == 0 {
		return false
	}
	eax, _ := xgetbv()
	return eax&0x6 == 0x6
}()

var fmaPath, fmaFlopsPerIter = func() (string, float64) {
	if hasFMA {
		return "256-bit", 10 * 4 * 2
	}
	return "scalar", 8 * 2
}()

func fmaLoop(n int, c *[2]float64) float64 {
	if hasFMA {
		return fmaAVX(n, c)
	}
	return fmaScalar(n, c)
}
