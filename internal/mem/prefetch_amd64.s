#include "textflag.h"

// func HostPrefetch(p *uint64)
TEXT ·HostPrefetch(SB), NOSPLIT, $0-8
	MOVQ	p+0(FP), AX
	PREFETCHT0	(AX)
	RET
