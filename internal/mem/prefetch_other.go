//go:build !amd64 && !arm64

package mem

// HostPrefetch is a no-op where no prefetch instruction is wired up.
func HostPrefetch(p *uint64) {}
