//go:build amd64 && !purego

#include "textflag.h"

// func axpy(a float64, x, y []float64)
//
// y[i] += a*x[i] for i < len(y), two lanes at a time. MULPD then ADDPD, each
// rounding once like the Go expression it stands for; never an FMA.
TEXT ·axpy(SB), NOSPLIT, $0-56
	MOVSD    a+0(FP), X0
	UNPCKLPD X0, X0
	MOVQ     x_base+8(FP), SI
	MOVQ     y_base+32(FP), DI
	MOVQ     y_len+40(FP), CX
	SUBQ     $4, CX
	JLT      tail

loop4:
	MOVUPD (SI), X1
	MOVUPD 16(SI), X2
	MOVUPD (DI), X3
	MOVUPD 16(DI), X4
	MULPD  X0, X1
	MULPD  X0, X2
	ADDPD  X1, X3
	ADDPD  X2, X4
	MOVUPD X3, (DI)
	MOVUPD X4, 16(DI)
	ADDQ   $32, SI
	ADDQ   $32, DI
	SUBQ   $4, CX
	JGE    loop4

tail:
	ADDQ $4, CX
	JEQ  done

loop1:
	MOVSD (SI), X1
	MULSD X0, X1
	ADDSD (DI), X1
	MOVSD X1, (DI)
	ADDQ  $8, SI
	ADDQ  $8, DI
	DECQ  CX
	JNE   loop1

done:
	RET
