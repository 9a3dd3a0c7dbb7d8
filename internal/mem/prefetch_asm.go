//go:build amd64 || arm64

package mem

// hostPrefetch hints the host to load the cache line holding *p; it reads
// nothing and cannot fault.
//
//go:noescape
func hostPrefetch(p *uint64)
