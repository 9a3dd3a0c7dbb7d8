#include "textflag.h"

// func hostPrefetch(p *uint64)
TEXT ·hostPrefetch(SB), NOSPLIT, $0-8
	MOVQ	p+0(FP), AX
	PREFETCHT0	(AX)
	RET
