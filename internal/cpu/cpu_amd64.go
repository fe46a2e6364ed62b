//go:build amd64

package cpu

// cpuid executes the CPUID instruction with the given leaf/subleaf.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (only called when CPUID reports
// OSXSAVE, so the instruction is guaranteed to exist).
func xgetbv() (eax, edx uint32)

// AVX reports whether the CPU and OS support AVX (VEX-encoded ymm ops and
// ymm state saving).
var AVX = func() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 1 {
		return false
	}
	const osxsaveBit = 1 << 27
	const avxBit = 1 << 28
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&osxsaveBit == 0 || ecx&avxBit == 0 {
		return false
	}
	// XCR0 bits 1 (SSE/XMM) and 2 (AVX/YMM) must both be OS-enabled.
	eax, _ := xgetbv()
	return eax&0x6 == 0x6
}()
