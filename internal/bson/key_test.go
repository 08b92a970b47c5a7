package bson

import (
	"bytes"
	"math"
	"testing"
)

// TestKeyEncodingFollowsCompare: two values have the same key exactly when
// Compare calls them equal, and no key is a prefix of another.
func TestKeyEncodingFollowsCompare(t *testing.T) {
	id := NewObjectID()
	values := []any{
		nil, int64(0), 0.0, math.Copysign(0, -1), int64(1), 1.0, 1.5, math.NaN(), math.Inf(1), int64(1) << 53, float64(1 << 53),
		int64(1)<<53 + 1, int64(1)<<53 + 2, float64(1<<53 + 2), int64(math.MaxInt64), int64(math.MinInt64), float64(1 << 63), -float64(1 << 63),
		"", "a", "ab", "a\x00b", true, false, id, NewObjectID(),
		A(), A(1), A(1.0), A(1, 2), A(A(1), 2), A("a", "b"), A("ab"),
		NewDoc(0), D("a", 1), D("a", 1.0), D("a", 1, "b", 2), D("b", 2, "a", 1), D("a", D("b", 2)), D("", ""),
	}
	for _, a := range values {
		for _, b := range values {
			ka, kb := AppendKey(nil, a), AppendKey(nil, b)
			if equal := Compare(a, b) == 0; equal != bytes.Equal(ka, kb) {
				t.Errorf("Compare(%v, %v) == 0 is %v, keys %x and %x", a, b, equal, ka, kb)
			}
			if !bytes.Equal(ka, kb) && bytes.HasPrefix(ka, kb) {
				t.Errorf("the key of %v (%x) is a prefix of the key of %v (%x)", b, kb, a, ka)
			}
		}
	}
}
