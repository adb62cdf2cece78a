//go:build !linux

package bitvec

// Zero sets every word of words to zero. Off Linux it clears them in
// place: BSD and macOS accept MADV_DONTNEED but do not promise that the
// pages read as zero afterwards.
func Zero(words []uint64) { clear(words) }
