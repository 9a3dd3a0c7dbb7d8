#include "textflag.h"

// func hostPrefetch(p *uint64)
TEXT ·hostPrefetch(SB), NOSPLIT, $0-8
	MOVD	p+0(FP), R0
	PRFM	(R0), PLDL1KEEP
	RET
