#include "textflag.h"

// func HostPrefetch(p *uint64)
TEXT ·HostPrefetch(SB), NOSPLIT, $0-8
	MOVD	p+0(FP), R0
	PRFM	(R0), PLDL1KEEP
	RET
