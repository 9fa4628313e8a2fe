#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func gatherBlocksAVX(dst, src []float64, rows []int32, stride int)
//
// Each block of 32 destination columns is held in Y0-Y7 while the member
// rows stream past. Every VADDPD adds the row's value to the accumulator
// (accumulator as first operand, as in the scalar s += g), in member
// order, with no fused multiply-add, so each lane performs exactly the
// scalar loop's sequence of IEEE double additions.
TEXT ·gatherBlocksAVX(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	SHRQ $5, CX
	JZ   done
	MOVQ src_base+24(FP), SI
	MOVQ rows_base+48(FP), R8
	MOVQ rows_len+56(FP), R9
	MOVQ stride+72(FP), R10

block:
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7
	XORQ    AX, AX
	TESTQ   R9, R9
	JZ      store

row:
	// BX = &src[rows[AX]*stride + block offset]
	MOVLQSX (R8)(AX*4), BX
	IMULQ   R10, BX
	LEAQ    (SI)(BX*8), BX
	VADDPD  0(BX), Y0, Y0
	VADDPD  32(BX), Y1, Y1
	VADDPD  64(BX), Y2, Y2
	VADDPD  96(BX), Y3, Y3
	VADDPD  128(BX), Y4, Y4
	VADDPD  160(BX), Y5, Y5
	VADDPD  192(BX), Y6, Y6
	VADDPD  224(BX), Y7, Y7
	INCQ    AX
	CMPQ    AX, R9
	JLT     row

store:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ    $256, DI
	ADDQ    $256, SI
	DECQ    CX
	JNZ     block

done:
	VZEROUPPER
	RET
