package btree

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
)

func TestInsertGet(t *testing.T) {
	tr := New()
	tr.Insert("b", 2)
	tr.Insert("a", 1)
	tr.Insert("c", 3)
	tr.Insert("a", 10) // duplicate key
	if got := tr.Get("a"); len(got) != 2 || got[0] != 1 || got[1] != 10 {
		t.Errorf("Get(a) = %v", got)
	}
	if got := tr.Get("zz"); got != nil {
		t.Errorf("Get(zz) = %v, want nil", got)
	}
	if tr.Len() != 4 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestSplitsAndOrder(t *testing.T) {
	tr := New()
	const n = 10_000
	perm := rand.New(rand.NewSource(7)).Perm(n)
	for _, i := range perm {
		tr.Insert(fmt.Sprintf("k%06d", i), int64(i))
	}
	if tr.Depth() < 2 {
		t.Errorf("depth = %d, expected splits to occur", tr.Depth())
	}
	var keys []string
	tr.Ascend(func(k string, ids []int64) bool {
		keys = append(keys, k)
		return true
	})
	if len(keys) != n {
		t.Fatalf("distinct keys = %d, want %d", len(keys), n)
	}
	if !sort.StringsAreSorted(keys) {
		t.Error("Ascend not in order")
	}
	for i := 0; i < n; i += 997 {
		k := fmt.Sprintf("k%06d", i)
		got := tr.Get(k)
		if len(got) != 1 || got[0] != int64(i) {
			t.Errorf("Get(%s) = %v", k, got)
		}
	}
}

func TestDelete(t *testing.T) {
	tr := New()
	for i := 0; i < 1000; i++ {
		tr.Insert(fmt.Sprintf("k%04d", i%100), int64(i))
	}
	if !tr.Delete("k0007", 7) {
		t.Fatal("Delete existing = false")
	}
	if tr.Delete("k0007", 7) {
		t.Fatal("double delete = true")
	}
	if tr.Delete("missing", 0) {
		t.Fatal("Delete missing key = true")
	}
	ids := tr.Get("k0007")
	for _, id := range ids {
		if id == 7 {
			t.Error("id 7 still present")
		}
	}
	if tr.Len() != 999 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestDeleteEmptiesKey(t *testing.T) {
	tr := New()
	tr.Insert("only", 1)
	tr.Delete("only", 1)
	if got := tr.Get("only"); got != nil {
		t.Errorf("Get after full delete = %v", got)
	}
	if tr.Keys() != 0 {
		t.Errorf("Keys = %d", tr.Keys())
	}
}

func TestAscendRange(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		tr.Insert(fmt.Sprintf("k%02d", i), int64(i))
	}
	var got []string
	tr.AscendRange("k10", "k19", func(k string, ids []int64) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 10 || got[0] != "k10" || got[9] != "k19" {
		t.Errorf("range = %v", got)
	}
	// Early stop.
	count := 0
	tr.AscendRange("k00", "", func(k string, ids []int64) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop count = %d", count)
	}
}

// Property: tree agrees with a reference map for random workloads.
func TestTreeMatchesReferenceModel(t *testing.T) {
	f := func(ops []uint16) bool {
		tr := New()
		ref := map[string][]int64{}
		for i, op := range ops {
			key := fmt.Sprintf("k%03d", op%271)
			id := int64(i)
			if op%3 == 0 && len(ref[key]) > 0 {
				victim := ref[key][0]
				ref[key] = ref[key][1:]
				if len(ref[key]) == 0 {
					delete(ref, key)
				}
				if !tr.Delete(key, victim) {
					return false
				}
			} else {
				ref[key] = append(ref[key], id)
				tr.Insert(key, id)
			}
		}
		total := 0
		for k, ids := range ref {
			got := tr.Get(k)
			if len(got) != len(ids) {
				return false
			}
			total += len(ids)
		}
		return tr.Len() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Ascend yields keys in strictly increasing order regardless
// of insertion order.
func TestAscendSortedProperty(t *testing.T) {
	f := func(keys []string) bool {
		tr := New()
		for i, k := range keys {
			tr.Insert(k, int64(i))
		}
		prev := ""
		first := true
		ok := true
		tr.Ascend(func(k string, ids []int64) bool {
			if !first && k <= prev {
				ok = false
				return false
			}
			prev, first = k, false
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkInsert(b *testing.B) {
	tr := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Insert(fmt.Sprintf("k%08d", i), int64(i))
	}
}

func BenchmarkGet(b *testing.B) {
	tr := New()
	for i := 0; i < 100_000; i++ {
		tr.Insert(fmt.Sprintf("k%08d", i), int64(i))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Get(fmt.Sprintf("k%08d", i%100_000))
	}
}

// Regression: keys that become split separators must remain findable.
// Variable-width keys inserted in numeric order ("3U0", "3U1", ...,
// "3U149") are not lexicographically sorted, which previously lost
// separator keys into the wrong child.
func TestSeparatorKeysFindable(t *testing.T) {
	tr := New()
	const n = 5000
	for i := 0; i < n; i++ {
		tr.Insert(fmt.Sprintf("3U%d", i), int64(i))
	}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("3U%d", i)
		if got := tr.Get(k); len(got) != 1 || got[0] != int64(i) {
			t.Fatalf("Get(%s) = %v", k, got)
		}
	}
	// Deletions of separator keys work too.
	for i := 0; i < n; i += 7 {
		if !tr.Delete(fmt.Sprintf("3U%d", i), int64(i)) {
			t.Fatalf("Delete(3U%d) failed", i)
		}
	}
}

// bytesPerKey returns the live heap a tree built from keys in the given
// order holds per key, excluding the key strings themselves (they are
// allocated before the measurement starts).
func bytesPerKey(keys []string) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tr := New()
	for i, k := range keys {
		tr.Insert(k, int64(i))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(tr)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(len(keys))
}

// TestBytesPerKey pins the tree's memory per key: one key header and
// one inline row id per entry, leaves filled by right-edge splits on
// ascending loads.
func TestBytesPerKey(t *testing.T) {
	const n = 200_000
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%08d", i)
	}
	asc := bytesPerKey(keys)
	rand.New(rand.NewSource(11)).Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	shuffled := bytesPerKey(keys)
	t.Logf("bytes per key: ascending %.1f, shuffled %.1f", asc, shuffled)
	if asc > 40 {
		t.Errorf("ascending load holds %.1f B/key, want <= 40", asc)
	}
	if shuffled > 56 {
		t.Errorf("shuffled load holds %.1f B/key, want <= 56", shuffled)
	}
}

// shape renders a tree's node structure, keys included, so two trees
// can be compared split for split.
func shape(n *node) string {
	if n.leaf {
		return fmt.Sprint(n.keys, n.ids)
	}
	out := fmt.Sprint(n.keys, "{")
	for _, c := range n.children {
		out += shape(c) + " "
	}
	return out + "}"
}

// TestInsertUniqueSplitsLikeInsert: a tree loaded by InsertUnique has
// the shape of one loaded by Insert, in ascending and random key
// order, and an InsertUnique of a present key leaves the tree as it
// was, even where the path to the key runs through full nodes.
func TestInsertUniqueSplitsLikeInsert(t *testing.T) {
	for _, order := range []string{"ascending", "random"} {
		t.Run(order, func(t *testing.T) {
			r := rand.New(rand.NewSource(5))
			a, b := New(), New()
			var keys []string
			for i := 0; i < 5000; i++ {
				x := i
				if order == "random" {
					x = r.Intn(1 << 30)
				}
				key := fmt.Sprintf("k%010d", x)
				if len(a.Get(key)) > 0 {
					continue
				}
				keys = append(keys, key)
				a.Insert(key, int64(i))
				if !b.InsertUnique(key, int64(i)) {
					t.Fatalf("InsertUnique(%q) of a new key = false", key)
				}
			}
			if shape(a.root) != shape(b.root) || a.Len() != b.Len() {
				t.Fatal("InsertUnique built a different tree than Insert")
			}
			before := shape(b.root)
			for _, key := range keys {
				if b.InsertUnique(key, -1) {
					t.Fatalf("InsertUnique(%q) of a present key = true", key)
				}
			}
			if shape(b.root) != before || b.Len() != len(keys) {
				t.Fatal("InsertUnique of present keys changed the tree")
			}
		})
	}
}
