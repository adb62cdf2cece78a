package core

import (
	"bytes"
	"testing"
)

// TestCheckMatchesDecode runs Check and Decode over valid and damaged
// encodings of generic-width filters, whose words Check walks through
// its fixed buffer: filters from one buffer load to several, words that
// straddle 64-bit boundaries, and one overrunning word planted at the
// arena's start, at its end and across a buffer refill. Both must accept
// the valid encodings and reject every damaged one.
func TestCheckMatchesDecode(t *testing.T) {
	for _, tc := range []struct{ w, words int }{
		{32, 100}, {48, 100}, {96, 50}, {200, 40}, {48, 5000}, {200, 3000}, {1000, 400},
	} {
		flt, err := New(Config{MemoryBits: tc.w * tc.words, W: tc.w, K: 3, B1: tc.w / 2})
		if err != nil {
			t.Fatal(err)
		}
		if flt.kmode != kmodeGeneric {
			t.Fatalf("w=%d: want the generic path", tc.w)
		}
		for i := 0; i < 2*tc.words; i++ {
			_ = flt.Insert([]byte{byte(i), byte(i >> 8), byte(i >> 16)})
		}
		data, err := flt.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := Check(bytes.NewReader(data), int64(len(data))); err != nil {
			t.Fatalf("w=%d words=%d: Check rejects a valid filter: %v", tc.w, tc.words, err)
		}
		arena := HeaderLen + 8*len(flt.saturated)
		// checkBufWords*64/w words fill the buffer once: plant one just
		// past that, where it straddles a refill.
		refill := min(checkBufWords*64/tc.w, tc.words-1)
		for _, word := range []int{0, refill, tc.words - 1} {
			bad := append([]byte(nil), data...)
			for bit := word * tc.w; bit < (word+1)*tc.w; bit++ {
				bad[arena+bit/8] |= 1 << (bit % 8)
			}
			_, decErr := Decode(bytes.NewReader(bad), int64(len(bad)))
			chkErr := Check(bytes.NewReader(bad), int64(len(bad)))
			if decErr == nil || chkErr == nil {
				t.Errorf("w=%d words=%d, word %d overruns: Decode %v, Check %v; want both to fail", tc.w, tc.words, word, decErr, chkErr)
			}
		}
	}
}
