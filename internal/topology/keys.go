package topology

import (
	"cmp"
	"slices"
)

// SortedKeys returns m's keys in ascending order. Go randomises map
// iteration order per run, so production code never ranges over a map
// (the maporder analyzer in internal/lint); a walk whose effects could
// depend on the order goes through this slice instead.
func SortedKeys[M ~map[K]V, K cmp.Ordered, V any](m M) []K {
	keys := make([]K, 0, len(m))
	//scmplint:ignore maporder — collects the keys, which are sorted before anyone reads them
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
