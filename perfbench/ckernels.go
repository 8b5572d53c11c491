package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// cKernel is one generated C program plus the a0 value it must return,
// computed here in Go from the same seeded inputs.
type cKernel struct {
	src  string
	want int32
}

// Kernel kinds, each with sizes split into cSizeQuarters strata.
const (
	cSort = iota
	cDot
	cMatmul
	cKinds
	cSizeQuarters = 4
)

// genCKernel draws one kernel of the given kind (insertion sort, dot
// product or matrix multiply) with a seeded size from the given quarter of
// the kind's size range, and seeded data. Values stay small so no
// intermediate overflows int32 at any size drawn here.
func genCKernel(rng *rand.Rand, kind, quarter int) cKernel {
	data := func(n int) []int32 {
		v := make([]int32, n)
		for i := range v {
			v[i] = int32(rng.Intn(101) - 50)
		}
		return v
	}
	switch kind {
	case cSort:
		n := 8 + 4*quarter + rng.Intn(4)
		v := data(n)
		src := fmt.Sprintf(`int v[%d] = {%s};
int main() {
    for (int i = 1; i < %d; i++) {
        int x = v[i];
        int j = i - 1;
        while (j >= 0 && v[j] > x) {
            v[j + 1] = v[j];
            j = j - 1;
        }
        v[j + 1] = x;
    }
    int s = 0;
    for (int i = 0; i < %d; i++) s = s + v[i] * (i + 1);
    return s;
}
`, n, joinInts(v), n, n)
		sorted := append([]int32(nil), v...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		var s int32
		for i, x := range sorted {
			s += x * int32(i+1)
		}
		return cKernel{src, s}
	case cDot:
		n := 32 + 24*quarter + rng.Intn(24)
		a, b := data(n), data(n)
		src := fmt.Sprintf(`int a[%d] = {%s};
int b[%d] = {%s};
int main() {
    int s = 0;
    for (int i = 0; i < %d; i++) s = s + a[i] * b[i];
    return s;
}
`, n, joinInts(a), n, joinInts(b), n)
		var s int32
		for i := range a {
			s += a[i] * b[i]
		}
		return cKernel{src, s}
	default:
		n := 3 + quarter
		a, b := data(n*n), data(n*n)
		src := fmt.Sprintf(`int a[%d] = {%s};
int b[%d] = {%s};
int main() {
    int s = 0;
    for (int i = 0; i < %d; i++) {
        for (int j = 0; j < %d; j++) {
            int c = 0;
            for (int k = 0; k < %d; k++) c = c + a[i * %d + k] * b[k * %d + j];
            s = s + c * (i * %d + j + 1);
        }
    }
    return s;
}
`, n*n, joinInts(a), n*n, joinInts(b), n, n, n, n, n, n)
		var s int32
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var c int32
				for k := 0; k < n; k++ {
					c += a[i*n+k] * b[k*n+j]
				}
				s += c * int32(i*n+j+1)
			}
		}
		return cKernel{src, s}
	}
}

func joinInts(v []int32) string {
	var sb strings.Builder
	for i, x := range v {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprint(&sb, x)
	}
	return sb.String()
}
