//go:build !amd64 && !arm64

package mem

// hostPrefetch is a no-op where no prefetch instruction is wired up.
func hostPrefetch(p *uint64) {}
