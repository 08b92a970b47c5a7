package bson

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestTypeOfAndString(t *testing.T) {
	cases := []struct {
		v    any
		want Type
	}{
		{nil, TypeNull},
		{int64(3), TypeNumber},
		{3.5, TypeNumber},
		{"s", TypeString},
		{D("a", 1), TypeDocument},
		{A(1, 2), TypeArray},
		{NewObjectID(), TypeObjectID},
		{true, TypeBool},
		{time.Now(), TypeDate},
	}
	for _, c := range cases {
		if got := TypeOf(c.v); got != c.want {
			t.Errorf("TypeOf(%v) = %v, want %v", c.v, got, c.want)
		}
	}
	names := map[Type]string{
		TypeNull: "null", TypeNumber: "number", TypeString: "string",
		TypeDocument: "document", TypeArray: "array", TypeObjectID: "objectId",
		TypeBool: "bool", TypeDate: "date",
	}
	for ty, want := range names {
		if ty.String() != want {
			t.Errorf("%d.String() = %q, want %q", ty, ty.String(), want)
		}
	}
	if Type(99).String() == "" {
		t.Errorf("unknown type should still produce a name")
	}
}

func TestCompareSameType(t *testing.T) {
	cases := []struct {
		a, b any
		want int
	}{
		{int64(1), int64(2), -1},
		{int64(2), int64(2), 0},
		{int64(3), int64(2), 1},
		{int64(2), 2.5, -1},
		{2.5, int64(2), 1},
		{2.0, int64(2), 0},
		{"a", "b", -1},
		{"b", "b", 0},
		{"c", "b", 1},
		{true, false, 1},
		{false, true, -1},
		{true, true, 0},
		{nil, nil, 0},
	}
	for _, c := range cases {
		if got := Compare(Normalize(c.a), Normalize(c.b)); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareCrossTypeOrder(t *testing.T) {
	// null < number < string < document < array < objectid < bool < date
	ordered := []any{nil, int64(5), "s", D("a", 1), A(1), NewObjectID(), true, time.Now()}
	for i := 0; i < len(ordered); i++ {
		for j := 0; j < len(ordered); j++ {
			got := Compare(ordered[i], ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v, %v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestCompareDocsAndArrays(t *testing.T) {
	if Compare(D("a", 1), D("a", 1)) != 0 {
		t.Errorf("equal docs should compare 0")
	}
	if Compare(D("a", 1), D("a", 2)) != -1 {
		t.Errorf("doc value ordering wrong")
	}
	if Compare(D("a", 1), D("b", 1)) != -1 {
		t.Errorf("doc key ordering wrong")
	}
	if Compare(D("a", 1), D("a", 1, "b", 2)) != -1 {
		t.Errorf("shorter doc should sort first")
	}
	if Compare(A(1, 2), A(1, 3)) != -1 {
		t.Errorf("array element ordering wrong")
	}
	if Compare(A(1, 2), A(1, 2, 3)) != -1 {
		t.Errorf("shorter array should sort first")
	}
	if Compare(A(1, 2, 3), A(1, 2)) != 1 {
		t.Errorf("longer array should sort last")
	}
}

func TestCompareDates(t *testing.T) {
	t1 := time.Date(2001, 1, 1, 0, 0, 0, 0, time.UTC)
	t2 := time.Date(2002, 5, 29, 0, 0, 0, 0, time.UTC)
	if Compare(t1, t2) != -1 || Compare(t2, t1) != 1 || Compare(t1, t1) != 0 {
		t.Errorf("date comparison broken")
	}
}

func TestCompareObjectIDs(t *testing.T) {
	a := ObjectID{1}
	b := ObjectID{2}
	if Compare(a, b) != -1 || Compare(b, a) != 1 || Compare(a, a) != 0 {
		t.Errorf("objectid comparison broken")
	}
}

func TestCompareNaN(t *testing.T) {
	nan := math.NaN()
	if Compare(nan, 1.0) != -1 {
		t.Errorf("NaN should sort before numbers")
	}
	if Compare(1.0, nan) != 1 {
		t.Errorf("numbers should sort after NaN")
	}
	if Compare(nan, nan) != 0 {
		t.Errorf("NaN should equal NaN in the total order")
	}
}

// TestCompareLargeIntegersExactly: an int64 past 2^53 compares with another
// int64, and with a float64, by its exact value, not by the float64 nearest
// it; and the order stays antisymmetric across the two types.
func TestCompareLargeIntegersExactly(t *testing.T) {
	const two53 = int64(1) << 53
	cases := []struct {
		a, b any
		want int
	}{
		{two53, two53 + 1, -1},
		{two53 + 1, two53, 1},
		{two53 + 1, two53 + 1, 0},
		{two53 + 1, float64(two53), 1},
		{two53 + 1, float64(two53 + 2), -1},
		{two53, float64(two53), 0},
		{int64(math.MaxInt64), float64(1 << 63), -1},
		{int64(math.MaxInt64 - 1), int64(math.MaxInt64), -1},
		{int64(math.MinInt64), -float64(1 << 63), 0},
		{int64(math.MinInt64), math.Inf(-1), 1},
		{int64(math.MinInt64 + 1), int64(math.MinInt64), 1},
		{int64(3), 3.5, -1},
		{int64(-3), -3.5, 1},
		{int64(-3), -2.5, -1},
		{int64(0), math.Copysign(0, -1), 0},
		{int64(0), math.NaN(), 1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v (%T), %v (%T)) = %d, want %d", c.a, c.a, c.b, c.b, got, c.want)
		}
		if got := Compare(c.b, c.a); got != -c.want {
			t.Errorf("Compare(%v (%T), %v (%T)) = %d, want %d", c.b, c.b, c.a, c.a, got, -c.want)
		}
	}
}

func TestAsFloatAsInt(t *testing.T) {
	if f, ok := AsFloat(int64(3)); !ok || f != 3.0 {
		t.Errorf("AsFloat(int64) = %v, %v", f, ok)
	}
	if f, ok := AsFloat(3.5); !ok || f != 3.5 {
		t.Errorf("AsFloat(float64) = %v, %v", f, ok)
	}
	if _, ok := AsFloat("x"); ok {
		t.Errorf("AsFloat(string) should fail")
	}
	if i, ok := AsInt(3.9); !ok || i != 3 {
		t.Errorf("AsInt(3.9) = %v, %v", i, ok)
	}
	if i, ok := AsInt(int64(7)); !ok || i != 7 {
		t.Errorf("AsInt(int64) = %v, %v", i, ok)
	}
	if _, ok := AsInt(nil); ok {
		t.Errorf("AsInt(nil) should fail")
	}
	if !IsNumeric(int64(1)) || !IsNumeric(1.0) || IsNumeric("1") {
		t.Errorf("IsNumeric misbehaves")
	}
}

// randomValue builds a random canonical value for property tests.
func randomValue(r *rand.Rand, depth int) any {
	kind := r.Intn(8)
	if depth <= 0 && (kind == 3 || kind == 4) {
		kind = r.Intn(3)
	}
	switch kind {
	case 0:
		return nil
	case 1:
		return int64(r.Intn(2001) - 1000)
	case 2:
		return r.Float64()*2000 - 1000
	case 3:
		d := NewDoc(2)
		n := r.Intn(3)
		for i := 0; i < n; i++ {
			d.Set(randomKey(r), randomValue(r, depth-1))
		}
		return d
	case 4:
		n := r.Intn(3)
		arr := make([]any, n)
		for i := range arr {
			arr[i] = randomValue(r, depth-1)
		}
		return arr
	case 5:
		return randomKey(r)
	case 6:
		return r.Intn(2) == 0
	default:
		return time.UnixMilli(int64(r.Intn(1 << 30))).UTC()
	}
}

func randomKey(r *rand.Rand) string {
	letters := "abcdefgh"
	n := 1 + r.Intn(6)
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[r.Intn(len(letters))]
	}
	return string(b)
}

func TestCompareTotalOrderProperties(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	const n = 300
	vals := make([]any, n)
	for i := range vals {
		vals[i] = randomValue(r, 2)
	}
	// Antisymmetry and reflexivity.
	for i := 0; i < n; i++ {
		if Compare(vals[i], vals[i]) != 0 {
			t.Fatalf("value %v not equal to itself", vals[i])
		}
		for j := 0; j < n; j++ {
			if Compare(vals[i], vals[j]) != -Compare(vals[j], vals[i]) {
				t.Fatalf("antisymmetry violated for %v vs %v", vals[i], vals[j])
			}
		}
	}
	// Transitivity over random triples.
	for k := 0; k < 2000; k++ {
		a, b, c := vals[r.Intn(n)], vals[r.Intn(n)], vals[r.Intn(n)]
		if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
			t.Fatalf("transitivity violated: %v <= %v <= %v but a > c", a, b, c)
		}
	}
}

func TestCompareIntFloatEquivalenceQuick(t *testing.T) {
	// For any int32-range integer, comparing as int64 or float64 must agree.
	f := func(a, b int32) bool {
		ci := Compare(int64(a), int64(b))
		cf := Compare(float64(a), float64(b))
		cm := Compare(int64(a), float64(b))
		return ci == cf && cf == cm
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
