//go:build !amd64 && !arm64

package core

// prefetch does nothing on this GOARCH: the Plans appliers take their
// words' cache misses one after another.
func prefetch(addr *uint64) {}
