package core

// Arenas holds the arena words of filters that are gone, for a decode
// to build its filter in instead of allocating. A decode takes a slice
// only at exactly the word count its header names, and overwrites every
// word of it, so what the slice held before never shows. The zero value
// holds nothing; a nil *Arenas makes every decode allocate. Not safe for
// concurrent use.
type Arenas struct {
	free   map[int][][]uint64 // by length in words
	reused int64
}

// Put hands words to a. Nothing may read or write them afterwards except
// the decode that takes them.
func (a *Arenas) Put(words []uint64) {
	if a.free == nil {
		a.free = make(map[int][][]uint64)
	}
	a.free[len(words)] = append(a.free[len(words)], words)
}

// Reused returns the bytes decodes took from a instead of allocating.
func (a *Arenas) Reused() int64 { return a.reused }

// take returns a slice of exactly n words, taken from a when it holds
// one, otherwise newly allocated (and so zeroed).
func (a *Arenas) take(n int) []uint64 {
	if a != nil {
		if free := a.free[n]; len(free) > 0 {
			words := free[len(free)-1]
			a.free[n] = free[:len(free)-1]
			a.reused += 8 * int64(n)
			return words
		}
	}
	return make([]uint64, n)
}

// ReleaseArena hands f's arena words to put. f must not be used again.
func (f *Filter) ReleaseArena(put func(words []uint64)) { put(f.arena.Words()) }
