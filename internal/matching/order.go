package matching

import (
	"bytes"
	"cmp"
	"strconv"
)

// compareMappings orders mappings exactly as strings.Compare orders
// their Key() strings — name, ':', decimal targets joined by ',' —
// without building them. It returns 0 exactly when the mappings are
// Equal.
func compareMappings(a, b Mapping) int {
	as, bs := a.Schema, b.Schema
	switch {
	case as == bs:
		return compareTargets(a.Targets, b.Targets)
	case len(as) < len(bs) && bs[:len(as)] == as:
		// a's ':' meets b's next name byte; only if that is ':' too do
		// a's targets meet the rest of b's name.
		if c := bs[len(as)]; c != ':' {
			return cmp.Compare(':', c)
		}
		return compareTail(a.Targets, bs[len(as)+1:])
	case len(bs) < len(as) && as[:len(bs)] == bs:
		if c := as[len(bs)]; c != ':' {
			return cmp.Compare(c, ':')
		}
		return -compareTail(b.Targets, as[len(bs)+1:])
	}
	return cmp.Compare(as, bs)
}

// compareTargets orders the target parts of two keys of one schema:
// the first differing target decides by its decimal string, and a key
// that runs out first is smaller.
func compareTargets(a, b []int) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return compareDecimal(a[i], b[i])
		}
	}
	return cmp.Compare(len(a), len(b))
}

// compareTail compares the rendered targets t of one key with rest, the
// remainder of the other key's name, which the other key follows with
// ':' — a byte above every byte targets render to ('-', ',', digits).
// So t is smaller unless a differing byte decides first.
func compareTail(t []int, rest string) int {
	var buf [21]byte
	for i, x := range t {
		b := buf[:0]
		if i > 0 {
			b = append(b, ',')
		}
		for _, c := range strconv.AppendInt(b, int64(x), 10) {
			if len(rest) == 0 {
				return -1
			}
			if c != rest[0] {
				return cmp.Compare(c, rest[0])
			}
			rest = rest[1:]
		}
	}
	return -1
}

// compareDecimal orders two targets as their strconv.Itoa forms
// compare ("10" < "9"). Inside a key the shorter of two forms that
// prefix one another stays smaller ("1,2" < "12"): what follows it is
// ',' or the key's end, both below any digit.
func compareDecimal(x, y int) int {
	var bx, by [20]byte
	return bytes.Compare(strconv.AppendInt(bx[:0], int64(x), 10), strconv.AppendInt(by[:0], int64(y), 10))
}

// compareAnswers is the canonical answer order: ascending score, ties
// broken by compareMappings.
func compareAnswers(a, b Answer) int {
	if c := cmp.Compare(a.Score, b.Score); c != 0 {
		return c
	}
	return compareMappings(a.Mapping, b.Mapping)
}

// compareByMapping orders answers by mapping, lowest score first among
// equal mappings — the order dedup and ScoreIndex work in.
func compareByMapping(a, b Answer) int {
	if c := compareMappings(a.Mapping, b.Mapping); c != 0 {
		return c
	}
	return cmp.Compare(a.Score, b.Score)
}
