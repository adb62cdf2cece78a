//go:build linux

package bitvec

import (
	"syscall"
	"unsafe"
)

// Zero sets every word of words to zero. The whole pages among them go
// back to the kernel through madvise(MADV_DONTNEED): they read as zero
// from then on and leave the resident set until written again. The
// partial pages at either end are cleared in place, as is everything
// when the call fails. words must come from make, as every arena does:
// MADV_DONTNEED zero-fills private anonymous memory only, and nothing
// else may read or write words during the call.
func Zero(words []uint64) {
	lo := 0
	if off := pageOffset(words); off > 0 {
		lo = min(pageWords-off, len(words))
	}
	hi := lo + (len(words)-lo)/pageWords*pageWords
	if hi > lo {
		pages := words[lo:hi]
		b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(pages))), 8*len(pages))
		if syscall.Madvise(b, syscall.MADV_DONTNEED) == nil {
			clear(words[:lo])
			clear(words[hi:])
			return
		}
	}
	clear(words)
}
