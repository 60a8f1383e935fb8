package reducers

import (
	"strings"

	"blmr/internal/core"
)

// mergeLists is the fold behind SetUnionMerger and SelectionMerger: it
// merges two sorted packed lists (core.JoinList) into one sorted packed list
// of at most limit elements, reading both in place with core.ListCursor. On
// a tie a's element goes first; with union, b's equal element is dropped.
// Each element keeps the framing it has in its input, JoinList's for every
// list the reducers hold. A result that is a prefix of one input is that
// input, sliced; any other is built with one allocation. Both lists are read
// to the end, so a corrupt one panics as core.SplitList does, wherever the
// fault lies.
func mergeLists(a, b string, limit int, union bool) string {
	// walk runs the merge, writing the kept elements to dst if it is not
	// nil, and returns the merged list's size and how many of its elements
	// came from each side. It reads on past the limit, to check the rest.
	walk := func(dst *strings.Builder) (size, fromA, fromB int) {
		ca, cb := core.NewListCursor(a), core.NewListCursor(b)
		okA, okB := ca.Next(), cb.Next()
		for okA || okB {
			c, ok, from := &cb, &okB, &fromB
			if !okB || okA && ca.Elem <= cb.Elem {
				if union && okB && ca.Elem == cb.Elem {
					okB = cb.Next()
				}
				c, ok, from = &ca, &okA, &fromA
			}
			if fromA+fromB < limit {
				*from++
				size += len(c.Framed)
				if dst != nil {
					dst.WriteString(c.Framed)
				}
			}
			*ok = c.Next()
		}
		return size, fromA, fromB
	}
	size, fromA, fromB := walk(nil)
	switch {
	case fromB == 0:
		return a[:size]
	case fromA == 0:
		return b[:size]
	}
	var sb strings.Builder
	sb.Grow(size)
	walk(&sb)
	return sb.String()
}
