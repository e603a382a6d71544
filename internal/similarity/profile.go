package similarity

import (
	"slices"
	"strings"
	"sync"
	"unicode"
)

// GramQ is the q-gram width of NameProfile.Grams. It matches the
// trigram component of DefaultNameMetric, which is the only QGramSim
// width the kernels (and the candidate index) treat non-trivially.
const GramQ = 3

// NameProfile is the precomputed feature vector of one name: everything
// the batched kernels and the candidate index's bounders need to score
// or bound a pair without touching the string again. Profiles are
// interned (one per distinct name per Interner, shared across index
// generations and scoring sessions) and immutable once published.
type NameProfile struct {
	// ID is the interner-local identity; equal IDs mean equal names.
	ID uint32
	// Name is the raw name the profile was built from.
	Name string
	// Runes is the raw rune decoding of Name; Lower is its per-rune
	// unicode.ToLower image (identical length — strings.ToLower applies
	// the same simple, one-to-one case mapping).
	Runes []rune
	Lower []rune
	// ASCII marks every raw rune < 128, enabling the table-indexed
	// Myers fast path.
	ASCII bool
	// Bitmap folds the raw runes onto 64 bits (rune mod 64). Disjoint
	// bitmaps prove two names share no rune, so Jaro is zero.
	Bitmap uint64
	// Grams is the sorted multiset of interned, padded, lower-cased
	// q-gram IDs (q = GramQ). IDs are exact — equal ID means equal
	// gram — so multiset intersections equal QGramSim's.
	Grams []uint32
	// CharCnt buckets the lower-cased runes into 32 classes (rune % 32)
	// for the Jaro matches bound. BigChar marks names long enough for a
	// uint8 bucket to saturate, in which case the bound falls back to
	// min(len, len).
	CharCnt [32]uint8
	BigChar bool
	// Prefix/Suffix hold the first/last ≤8 lower-cased runes; Suffix is
	// stored reversed so both compare front-to-front.
	Prefix []rune
	Suffix []rune
	// Toks are the interned sub-profiles of Tokenize(Name), in token
	// order with multiplicity. A single-token name references itself.
	Toks []*NameProfile
	// TokIDs/TokCounts are the sorted distinct token profile IDs with
	// their multiplicities (the token count vector of CosineSim);
	// TokClasses are the sorted distinct known synonym-class IDs.
	TokIDs     []uint32
	TokCounts  []uint32
	TokClasses []int32
	// NormID identifies the synonym-normalized whole name (trimmed,
	// lower-cased — exactly SynonymDict's normWord): two profiles with
	// equal NormID satisfy Synonyms(a, b).
	NormID uint32
	// Class is the synonym class of the whole name, -1 when unknown.
	Class int32
}

// RuneLen returns the rune length of the raw name.
func (p *NameProfile) RuneLen() int { return len(p.Runes) }

// GramTotal is the padded gram count of the name: runes + GramQ − 1,
// the denominator side of the Dice and count-filter bounds.
func (p *NameProfile) GramTotal() int { return len(p.Grams) }

// Interner builds and caches NameProfiles. One Interner is shared by a
// scoring kernel and everything derived from it (candidate-index
// generations), so a name is profiled once per process lifetime, not
// once per snapshot or per session. It only ever grows; profiles are
// small and the vocabulary of a workload is bounded in practice. Safe for concurrent use; the lookup fast path is a
// read-locked map hit.
type Interner struct {
	mu     sync.RWMutex
	dict   *SynonymDict // may be nil: no synonym-class features
	byName map[string]*NameProfile
	norm   map[string]uint32
	// grams interns q-gram windows by their packed key: GramQ runes of
	// ≤21 bits each (runes never exceed 0x10FFFF) shifted into one
	// uint64, so the per-gram map operation hashes a machine word
	// instead of a rune array.
	grams map[uint64]uint32
	next  uint32
}

// NewInterner returns an empty interner whose profiles carry synonym
// features from dict (nil: no synonym features).
func NewInterner(dict *SynonymDict) *Interner {
	return &Interner{
		dict:   dict,
		byName: make(map[string]*NameProfile),
		norm:   make(map[string]uint32),
		grams:  make(map[uint64]uint32),
	}
}

// Dict returns the synonym dictionary the profiles were built against.
func (in *Interner) Dict() *SynonymDict { return in.dict }

// Profile returns the profile of name, building it on first use.
func (in *Interner) Profile(name string) *NameProfile {
	in.mu.RLock()
	p, ok := in.byName[name]
	in.mu.RUnlock()
	if ok {
		return p
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.buildLocked(name)
}

// Len returns the number of interned profiles.
func (in *Interner) Len() int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return len(in.byName)
}

func (in *Interner) buildLocked(name string) *NameProfile {
	if p, ok := in.byName[name]; ok {
		return p
	}
	rs := []rune(name)
	// Lower aliases Runes until a rune actually changes case — most
	// schema names are already lower-case, and profiles are immutable,
	// so sharing the backing array is safe.
	lower := rs
	ascii := true
	var bitmap uint64
	for i, r := range rs {
		if l := unicode.ToLower(r); l != r {
			if &lower[0] == &rs[0] {
				lower = append([]rune(nil), rs...)
			}
			lower[i] = l
		}
		if r >= 128 {
			ascii = false
		}
		bitmap |= 1 << uint(r&63)
	}
	p := &NameProfile{
		ID:     in.next,
		Name:   name,
		Runes:  rs,
		Lower:  lower,
		ASCII:  ascii,
		Bitmap: bitmap,
		Class:  -1,
	}
	in.next++
	p.Grams = in.gramsLocked(lower)
	for _, r := range lower {
		b := r % 32
		if b < 0 {
			b += 32
		}
		if p.CharCnt[b] == 255 {
			p.BigChar = true
		} else {
			p.CharCnt[b]++
		}
	}
	n := len(lower)
	k := n
	if k > 8 {
		k = 8
	}
	// Prefix can alias the (immutable) lowered runes; Suffix is stored
	// reversed, so it needs its own backing.
	p.Prefix = lower[:k:k]
	if k > 0 {
		p.Suffix = make([]rune, k)
		for i := 0; i < k; i++ {
			p.Suffix[i] = lower[n-1-i]
		}
	}
	norm := strings.ToLower(strings.TrimSpace(name))
	nid, ok := in.norm[norm]
	if !ok {
		nid = uint32(len(in.norm))
		in.norm[norm] = nid
	}
	p.NormID = nid
	if in.dict != nil {
		if c, ok := in.dict.ClassID(name); ok {
			p.Class = int32(c)
		}
	}
	// Publish before interning tokens: a single-token name tokenizes to
	// itself, and the recursive lookup must find the (scalar-complete)
	// profile instead of rebuilding it forever.
	in.byName[name] = p
	for _, t := range Tokenize(name) {
		p.Toks = append(p.Toks, in.buildLocked(t))
	}
	if len(p.Toks) > 0 {
		ids := make([]uint32, len(p.Toks))
		for i, t := range p.Toks {
			ids[i] = t.ID
		}
		slices.Sort(ids)
		for i := 0; i < len(ids); {
			j := i + 1
			for j < len(ids) && ids[j] == ids[i] {
				j++
			}
			p.TokIDs = append(p.TokIDs, ids[i])
			p.TokCounts = append(p.TokCounts, uint32(j-i))
			i = j
		}
		for _, t := range p.Toks {
			if t.Class >= 0 {
				p.TokClasses = append(p.TokClasses, t.Class)
			}
		}
		slices.Sort(p.TokClasses)
		p.TokClasses = slices.Compact(p.TokClasses)
	}
	return p
}

// gramsLocked returns the sorted multiset of interned IDs of the q-wide
// rune windows of rs padded with q−1 '#' runes on each side — the exact
// gram set QGramSim extracts. The window rolls through a packed uint64
// key (runeBits bits per rune), so each gram is one word-keyed map
// operation with no scratch slice.
func (in *Interner) gramsLocked(rs []rune) []uint32 {
	const (
		q        = GramQ
		runeBits = 21 // runes are ≤ 0x10FFFF
		window   = uint64(1)<<(q*runeBits) - 1
	)
	out := make([]uint32, 0, len(rs)+q-1)
	var key uint64
	for i := 0; i < q-1; i++ {
		key = key<<runeBits | '#'
	}
	push := func(r rune) {
		key = (key<<runeBits | uint64(r)) & window
		id, ok := in.grams[key]
		if !ok {
			id = uint32(len(in.grams))
			in.grams[key] = id
		}
		out = append(out, id)
	}
	for _, r := range rs {
		push(r)
	}
	for i := 0; i < q-1; i++ {
		push('#')
	}
	slices.Sort(out)
	return out
}

// MergeCount returns the multiset intersection size of two sorted ID
// slices (for sorted distinct slices this is plain |A ∩ B|).
func MergeCount(a, b []uint32) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}
