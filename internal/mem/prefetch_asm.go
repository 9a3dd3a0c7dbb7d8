//go:build amd64 || arm64

package mem

// HostPrefetch hints the host to load the cache line holding *p; it reads
// nothing and cannot fault. AddrSpace.Prefetch issues it for a simulated
// prefetch, and the interpreter for each demand load's word before it runs
// the cache model, so the host miss overlaps the simulated cache walk.
//
//go:noescape
func HostPrefetch(p *uint64)
