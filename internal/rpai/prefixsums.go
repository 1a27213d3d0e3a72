package rpai

// PrefixSums answers many GetSum/GetSumLess probes in one shared descent.
//
// keys must be sorted ascending; dst must have the same length. On return
// dst[i] holds the sum of values over all entries with key <= keys[i]
// (inclusive=true, GetSum semantics) or key < keys[i] (inclusive=false,
// GetSumLess semantics). keys is clobbered: the descent rebases every probe
// relative to the path walked so far, exactly as the single-probe loops
// rebase their one key, which keeps the slice sorted and lets probes that
// share a path share the partial sum accumulated along it.
//
// Each probe performs the same additions in the same order as its standalone
// GetSum/GetSumLess call, so every dst[i] is bit-identical to the
// single-probe result. The cost is O(K + A log n) where A is the number of
// distinct root-to-frontier paths the K probes fan out over (A <= K), versus
// O(K log n) for K independent descents.
func (t *Tree) PrefixSums(keys, dst []float64, inclusive bool) {
	if len(keys) != len(dst) {
		panic("rpai: PrefixSums keys/dst length mismatch")
	}
	t.prefixSums(t.root, keys, dst, 0, inclusive)
}

// prefixSums resolves the probes in keys against the subtree rooted at i,
// where acc is the sum already accumulated on the path from the root (the
// running s of the single-probe loop). Probes are split at each node into
// the ascending prefix that descends left and the suffix that descends
// right; the left half recurses, the right half continues iteratively so
// the all-probes-one-side case (the common one) stays a loop.
func (t *Tree) prefixSums(i int32, keys, dst []float64, acc float64, inclusive bool) {
	for i >= 0 && len(keys) > 0 {
		n := t.nodeAt(i)
		// First probe that takes the right branch. The single-probe loop
		// goes left when k < n.key (GetSum) or k <= n.key (GetSumLess); keys
		// ascend, so left-goers form a prefix.
		cut := 0
		if inclusive {
			for cut < len(keys) && keys[cut] < n.key {
				cut++
			}
		} else {
			for cut < len(keys) && keys[cut] <= n.key {
				cut++
			}
		}
		// Rebase every probe below this node (k -= n.key in the
		// single-probe loop). Subtracting the same constant preserves the
		// ascending order.
		for j := range keys {
			keys[j] -= n.key
		}
		if cut > 0 && cut < len(keys) {
			t.prefixSums(n.left, keys[:cut], dst[:cut], acc, inclusive)
			keys, dst = keys[cut:], dst[cut:]
			acc += n.value + n.leftSum
			i = n.right
		} else if cut == len(keys) {
			i = n.left
		} else {
			acc += n.value + n.leftSum
			i = n.right
		}
	}
	for j := range dst {
		dst[j] = acc
	}
}
