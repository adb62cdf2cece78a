//go:build amd64 || arm64

package core

// prefetch asks the CPU to start loading the cache line that holds *addr
// and returns at once (PREFETCHT0 on amd64, PRFM PLDL1KEEP on arm64). It
// never faults and changes nothing the program reads.
//
//go:noescape
func prefetch(addr *uint64)
