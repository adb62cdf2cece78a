package core

import "repro/internal/hcbf"

// Plan is one key's place in a filter: its word and its k first-level
// slots. A plan reads only the filter's immutable hasher and layout, so a
// batch can be planned in parallel and without the lock that guards the
// words; applying it then costs one word access and no hashing. Beyond
// L3 that access is a cache miss, and the Plans appliers prefetch the
// word of the plan prefetchAhead places ahead of the one they apply, so
// that a batch's misses are in flight while earlier keys are updated.
//
// Only the kernel geometry (g=1, w=64, at most maxPlanK slots) is
// planned. On any other a plan carries just its tag, and the appliers
// run the per-key operation on keys[p.Tag].
type Plan struct {
	// Tag is the caller's: it names the key in its batch, and the
	// appliers answer at out[Tag].
	Tag   int
	word  int
	slots uint64 // slot i in bits [6i, 6i+6)
}

const (
	// maxPlanK is the most slot indices a Plan packs: k 6-bit slots
	// (b1 <= 64) in one uint64.
	maxPlanK = 10
	// prefetchAhead is how many plans ahead of the one being applied the
	// appliers prefetch a word. 8, 16 and 32 measure alike beyond L3.
	prefetchAhead = 16
)

// planned reports whether f's plans carry words and slots.
func (f *Filter) planned() bool {
	return f.cfg.G == 1 && f.kmode == kmode64 && f.cfg.K <= maxPlanK
}

// Plan computes key's plan, tagged tag. On the kernel geometry it derives
// the same word and slots as the per-key hot paths, in the same order.
func (f *Filter) Plan(key []byte, tag int) Plan {
	if !f.planned() {
		return Plan{Tag: tag}
	}
	s := f.hasher.NewIndexStream(key)
	var slots uint64
	for i := f.cfg.K - 1; i >= 0; i-- {
		slots = slots<<6 | uint64(s.Slot(i, f.b1))
	}
	return Plan{Tag: tag, word: s.Word(0, f.l), slots: slots}
}

// mask returns the first-level bits of p's k slots.
func (p Plan) mask(k int) uint64 {
	var m uint64
	for s := p.slots; k > 0; k, s = k-1, s>>6 {
		m |= 1 << (s & 63)
	}
	return m
}

// prefetchFirst prefetches the words of ps's first prefetchAhead plans;
// an applier then prefetches ps[i+prefetchAhead]'s as it applies ps[i].
func prefetchFirst(words []uint64, ps []Plan) {
	for i := range prefetchAhead {
		prefetchPlan(words, ps, i)
	}
}

// prefetchPlan prefetches the word of ps[i], if ps has an i-th plan.
func prefetchPlan(words []uint64, ps []Plan, i int) {
	if i < len(ps) {
		prefetch(&words[ps[i].word])
	}
}

// InsertPlans inserts the keys planned in ps, in order, exactly as Insert
// would one after another; keys[p.Tag] is p's key. It stops at the first
// error (a full word under OverflowFail) and returns how many keys it
// inserted.
func (f *Filter) InsertPlans(ps []Plan, keys [][]byte) (int, error) {
	if !f.planned() {
		for i, p := range ps {
			if err := f.Insert(keys[p.Tag]); err != nil {
				return i, err
			}
		}
		return len(ps), nil
	}
	b1, k, words := f.b1, f.cfg.K, f.arena.Words()
	prefetchFirst(words, ps)
	for i := range ps {
		prefetchPlan(words, ps, i+prefetchAhead)
		w := ps[i].word
		if len(f.saturated) != 0 && f.saturated[w] {
			f.count++
			continue
		}
		v := words[w]
		if 64-hcbf.Used64(v, b1) < k {
			if err := f.overflowWord(w); err != nil {
				return i, err
			}
			f.count++
			continue
		}
		for j, s := 0, ps[i].slots; j < k; j, s = j+1, s>>6 {
			v, _ = hcbf.Inc64(v, b1, int(s&63))
		}
		words[w] = v
		f.count++
	}
	return len(ps), nil
}

// DeletePlans deletes the keys planned in ps, in order, exactly as Delete
// would one after another, and sets out[p.Tag] to whether p's delete
// succeeded: false means ErrUnderflow, and p's word was not written.
// keys[p.Tag] is p's key. It returns how many succeeded.
func (f *Filter) DeletePlans(ps []Plan, keys [][]byte, out []bool) int {
	n := 0
	if !f.planned() {
		for _, p := range ps {
			out[p.Tag] = f.Delete(keys[p.Tag]) == nil
			if out[p.Tag] {
				n++
			}
		}
		return n
	}
	b1, k, words := f.b1, f.cfg.K, f.arena.Words()
	prefetchFirst(words, ps)
	for i := range ps {
		prefetchPlan(words, ps, i+prefetchAhead)
		p := &ps[i]
		if len(f.saturated) != 0 && f.saturated[p.word] {
			f.count--
			out[p.Tag] = true
			n++
			continue
		}
		v, ok := words[p.word], true
		for j, s := 0, p.slots; j < k && ok; j, s = j+1, s>>6 {
			v, _, ok = hcbf.Dec64(v, b1, int(s&63))
		}
		out[p.Tag] = ok
		if ok {
			words[p.word] = v
			f.count--
			n++
		}
	}
	return n
}

// ContainsPlans sets out[p.Tag] to whether the key planned in p may be in
// the set, for every p in ps, as Contains would; keys[p.Tag] is p's key.
func (f *Filter) ContainsPlans(ps []Plan, keys [][]byte, out []bool) {
	if !f.planned() {
		for _, p := range ps {
			out[p.Tag] = f.Contains(keys[p.Tag])
		}
		return
	}
	k, words := f.cfg.K, f.arena.Words()
	prefetchFirst(words, ps)
	for i := range ps {
		prefetchPlan(words, ps, i+prefetchAhead)
		p := &ps[i]
		if len(f.saturated) != 0 && f.saturated[p.word] {
			out[p.Tag] = true
			continue
		}
		m := p.mask(k)
		out[p.Tag] = words[p.word]&m == m
	}
}
