package core

import "repro/internal/hcbf"

// Plan is one key's place in a filter: its word and its k first-level
// slots. A plan reads only the filter's immutable hasher and layout, so a
// batch can be planned in parallel and without the lock that guards the
// words; applying it then costs one word access and no hashing. Beyond
// L3 that access is a cache miss, and the Plans appliers take a batch's
// misses eight at a time instead of one after another.
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
	// planBlock is how many words the Plans appliers load back to back
	// before updating any of them, so that their misses overlap.
	planBlock = 8
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

// load fills x with the words of ps (at most planBlock plans), one load
// after another so that their cache misses overlap.
func (f *Filter) load(ps []Plan, x *[planBlock]uint64) {
	for i := range ps {
		x[i] = f.arena.Uint64At(ps[i].word << 6)
	}
}

// store writes v back as p's word and forwards it to the later plans of
// the block on the same word, whose preloaded copies it makes stale.
func (f *Filter) store(ps []Plan, x *[planBlock]uint64, i int, v uint64) {
	w := ps[i].word
	f.arena.SetUint64At(w<<6, v)
	for j := i + 1; j < len(ps); j++ {
		if ps[j].word == w {
			x[j] = v
		}
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
	b1, k := f.b1, f.cfg.K
	var x [planBlock]uint64
	for lo := 0; lo < len(ps); lo += planBlock {
		blk := ps[lo:min(lo+planBlock, len(ps))]
		f.load(blk, &x)
		for i := range blk {
			w := blk[i].word
			if len(f.saturated) != 0 && f.saturated[w] {
				f.count++
				continue
			}
			v := x[i]
			if 64-hcbf.Used64(v, b1) < k {
				if err := f.overflowWord(w); err != nil {
					return lo + i, err
				}
				f.count++
				continue
			}
			for j, s := 0, blk[i].slots; j < k; j, s = j+1, s>>6 {
				v, _ = hcbf.Inc64(v, b1, int(s&63))
			}
			f.store(blk, &x, i, v)
			f.count++
		}
	}
	return len(ps), nil
}

// DeletePlans deletes the keys planned in ps, in order, exactly as Delete
// would one after another, and sets out[p.Tag] to whether p's delete
// succeeded: false means ErrUnderflow. keys[p.Tag] is p's key. It
// returns how many succeeded.
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
	b1, k := f.b1, f.cfg.K
	var x [planBlock]uint64
	for lo := 0; lo < len(ps); lo += planBlock {
		blk := ps[lo:min(lo+planBlock, len(ps))]
		f.load(blk, &x)
		for i := range blk {
			p := &blk[i]
			if len(f.saturated) != 0 && f.saturated[p.word] {
				f.count--
				out[p.Tag] = true
				n++
				continue
			}
			v, underflows := x[i], 0
			for j, s := 0, p.slots; j < k; j, s = j+1, s>>6 {
				var ok bool
				if v, _, ok = hcbf.Dec64(v, b1, int(s&63)); !ok {
					underflows++
				}
			}
			f.store(blk, &x, i, v)
			out[p.Tag] = underflows == 0
			if underflows == 0 {
				f.count--
				n++
			}
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
	k := f.cfg.K
	var x [planBlock]uint64
	for lo := 0; lo < len(ps); lo += planBlock {
		blk := ps[lo:min(lo+planBlock, len(ps))]
		f.load(blk, &x)
		for i := range blk {
			p := &blk[i]
			if len(f.saturated) != 0 && f.saturated[p.word] {
				out[p.Tag] = true
				continue
			}
			m := p.mask(k)
			out[p.Tag] = x[i]&m == m
		}
	}
}
