//go:build amd64 && !purego

#include "textflag.h"

// The AVX tiles behind ntQuads and gemvQuads (tiles_amd64.go). They
// multiply and add in separate instructions (VMULPD, then VADDPD) and
// never fuse: each ymm lane is one scalar accumulator of the Go code
// they replace, so every lane rounds exactly as that code does.

// Lane masks for the last panel's columns: the 4 qwords from
// colMask<>+8·(4−cols) set the first cols lanes.
DATA colMask<>+0(SB)/8, $0xffffffffffffffff
DATA colMask<>+8(SB)/8, $0xffffffffffffffff
DATA colMask<>+16(SB)/8, $0xffffffffffffffff
DATA colMask<>+24(SB)/8, $0xffffffffffffffff
DATA colMask<>+32(SB)/8, $0
DATA colMask<>+40(SB)/8, $0
DATA colMask<>+48(SB)/8, $0
DATA colMask<>+56(SB)/8, $0
GLOBL colMask<>(SB), RODATA|NOPTR, $64

// func cpuid1ECX() uint32
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// func xcr0() uint32
TEXT ·xcr0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// func ntQuadAVX(a []float64, lda, k int, bp []float64, n int, alpha float64, c []float64, ldc int)
//
// Rows 0…3 of a (row stride lda) times every packed panel of bp, into
// rows 0…3 of c (row stride ldc): c[r][j] += α·Σ_p a[r][p]·B[j][p].
// Row r's sums live in one ymm, lane q for column j0+q of the panel;
// A[r][p] is broadcast and multiplied by the panel's 4-wide strip at
// p, then added, for p = 0…k−1 in order. The panels lie back to back,
// so one cursor walks all of bp.
TEXT ·ntQuadAVX(SB), NOSPLIT, $0-112
	MOVQ a_base+0(FP), SI
	MOVQ lda+24(FP), R8
	SHLQ $3, R8
	LEAQ (SI)(R8*1), DX
	LEAQ (DX)(R8*1), R12
	LEAQ (R12)(R8*1), R13
	MOVQ k+32(FP), BX
	SHLQ $3, BX
	MOVQ bp_base+40(FP), DI
	MOVQ n+64(FP), CX
	VBROADCASTSD alpha+72(FP), Y14
	MOVQ c_base+80(FP), R8
	MOVQ ldc+104(FP), AX
	SHLQ $3, AX
	LEAQ (R8)(AX*1), R9
	LEAQ (R9)(AX*1), R10
	LEAQ (R10)(AX*1), R11
	CMPQ CX, $0
	JLE  done

panel:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ AX, AX
	CMPQ AX, BX
	JGE  scale

depth:
	VMOVUPD      (DI), Y4
	VBROADCASTSD (SI)(AX*1), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y0, Y0
	VBROADCASTSD (DX)(AX*1), Y6
	VMULPD       Y4, Y6, Y6
	VADDPD       Y6, Y1, Y1
	VBROADCASTSD (R12)(AX*1), Y7
	VMULPD       Y4, Y7, Y7
	VADDPD       Y7, Y2, Y2
	VBROADCASTSD (R13)(AX*1), Y8
	VMULPD       Y4, Y8, Y8
	VADDPD       Y8, Y3, Y3
	ADDQ         $32, DI
	ADDQ         $8, AX
	CMPQ         AX, BX
	JLT          depth

scale:
	VMULPD Y14, Y0, Y0
	VMULPD Y14, Y1, Y1
	VMULPD Y14, Y2, Y2
	VMULPD Y14, Y3, Y3
	CMPQ   CX, $4
	JLT    edge
	VADDPD  (R8), Y0, Y0
	VMOVUPD Y0, (R8)
	VADDPD  (R9), Y1, Y1
	VMOVUPD Y1, (R9)
	VADDPD  (R10), Y2, Y2
	VMOVUPD Y2, (R10)
	VADDPD  (R11), Y3, Y3
	VMOVUPD Y3, (R11)
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, R10
	ADDQ    $32, R11
	SUBQ    $4, CX
	JG      panel
	JMP     done

edge:
	// 1 ≤ cols ≤ 3: the last panel, its padded lanes neither read
	// from c nor written back.
	MOVQ       $4, AX
	SUBQ       CX, AX
	LEAQ       colMask<>(SB), CX
	VMOVUPD    (CX)(AX*8), Y9
	VMASKMOVPD (R8), Y9, Y10
	VADDPD     Y10, Y0, Y0
	VMASKMOVPD Y0, Y9, (R8)
	VMASKMOVPD (R9), Y9, Y10
	VADDPD     Y10, Y1, Y1
	VMASKMOVPD Y1, Y9, (R9)
	VMASKMOVPD (R10), Y9, Y10
	VADDPD     Y10, Y2, Y2
	VMASKMOVPD Y2, Y9, (R10)
	VMASKMOVPD (R11), Y9, Y10
	VADDPD     Y10, Y3, Y3
	VMASKMOVPD Y3, Y9, (R11)

done:
	VZEROUPPER
	RET

// func dotQuadAVX(a []float64, lda int, x []float64, dots *[4]float64)
//
// Ddot(row r of a, x) for rows r = 0…3 (row stride lda). Row r's four
// lane sums s0…s3 live in one ymm, and the four rows share each load
// of x. Each row then sums ((s0+s1)+s2)+s3 and adds the len(x)%4 tail
// in order, exactly as Ddot does.
TEXT ·dotQuadAVX(SB), NOSPLIT, $0-64
	MOVQ a_base+0(FP), SI
	MOVQ lda+24(FP), R8
	SHLQ $3, R8
	LEAQ (SI)(R8*1), DX
	LEAQ (DX)(R8*1), R12
	LEAQ (R12)(R8*1), R13
	MOVQ x_base+32(FP), DI
	MOVQ x_len+40(FP), CX
	MOVQ dots+56(FP), R9
	MOVQ CX, BX
	ANDQ $-4, BX
	SHLQ $3, BX
	SHLQ $3, CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ AX, AX
	CMPQ AX, BX
	JGE  lanes

quad:
	VMOVUPD (DI)(AX*1), Y4
	VMULPD  (SI)(AX*1), Y4, Y5
	VADDPD  Y5, Y0, Y0
	VMULPD  (DX)(AX*1), Y4, Y6
	VADDPD  Y6, Y1, Y1
	VMULPD  (R12)(AX*1), Y4, Y7
	VADDPD  Y7, Y2, Y2
	VMULPD  (R13)(AX*1), Y4, Y8
	VADDPD  Y8, Y3, Y3
	ADDQ    $32, AX
	CMPQ    AX, BX
	JLT     quad

lanes:
	VEXTRACTF128 $1, Y0, X8
	VUNPCKHPD    X0, X0, X9
	VADDSD       X9, X0, X0
	VADDSD       X8, X0, X0
	VUNPCKHPD    X8, X8, X8
	VADDSD       X8, X0, X0
	VEXTRACTF128 $1, Y1, X8
	VUNPCKHPD    X1, X1, X9
	VADDSD       X9, X1, X1
	VADDSD       X8, X1, X1
	VUNPCKHPD    X8, X8, X8
	VADDSD       X8, X1, X1
	VEXTRACTF128 $1, Y2, X8
	VUNPCKHPD    X2, X2, X9
	VADDSD       X9, X2, X2
	VADDSD       X8, X2, X2
	VUNPCKHPD    X8, X8, X8
	VADDSD       X8, X2, X2
	VEXTRACTF128 $1, Y3, X8
	VUNPCKHPD    X3, X3, X9
	VADDSD       X9, X3, X3
	VADDSD       X8, X3, X3
	VUNPCKHPD    X8, X8, X8
	VADDSD       X8, X3, X3

tail:
	CMPQ   AX, CX
	JGE    store
	VMOVSD (DI)(AX*1), X4
	VMULSD (SI)(AX*1), X4, X5
	VADDSD X5, X0, X0
	VMULSD (DX)(AX*1), X4, X6
	VADDSD X6, X1, X1
	VMULSD (R12)(AX*1), X4, X7
	VADDSD X7, X2, X2
	VMULSD (R13)(AX*1), X4, X8
	VADDSD X8, X3, X3
	ADDQ   $8, AX
	JMP    tail

store:
	VMOVSD X0, 0(R9)
	VMOVSD X1, 8(R9)
	VMOVSD X2, 16(R9)
	VMOVSD X3, 24(R9)
	VZEROUPPER
	RET
