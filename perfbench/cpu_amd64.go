package main

import "encoding/binary"

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func cpuBrand() string {
	if max, _, _, _ := cpuid(0x80000000, 0); max < 0x80000004 {
		return ""
	}
	var buf [48]byte
	for i := uint32(0); i < 3; i++ {
		a, b, c, d := cpuid(0x80000002+i, 0)
		for j, r := range [4]uint32{a, b, c, d} {
			binary.LittleEndian.PutUint32(buf[16*i+4*uint32(j):], r)
		}
	}
	n := 0
	for n < len(buf) && buf[n] != 0 {
		n++
	}
	return string(buf[:n])
}
