package btree

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// model is the reference a Tree is checked against: each key's row
// ids in insertion order, in a map that is sorted on demand.
type model map[string][]int64

func (m model) insert(key string, id int64) { m[key] = append(m[key], id) }

// delete removes the first posting (key, id), as Tree.Delete does.
func (m model) delete(key string, id int64) bool {
	ids := m[key]
	j := slices.Index(ids, id)
	if j < 0 {
		return false
	}
	if ids = slices.Delete(ids, j, j+1); len(ids) == 0 {
		delete(m, key)
	} else {
		m[key] = ids
	}
	return true
}

type posting struct {
	key string
	ids []int64
}

// rangeOf returns the model's postings with keys in [lo, hi] (an
// empty hi is unbounded), at most limit of them when limit > 0.
func (m model) rangeOf(lo, hi string, limit int) []posting {
	var out []posting
	for _, k := range slices.Sorted(maps.Keys(m)) {
		if k < lo || (hi != "" && k > hi) {
			continue
		}
		if limit > 0 && len(out) == limit {
			break
		}
		out = append(out, posting{k, m[k]})
	}
	return out
}

// treeRange collects the tree's postings over [lo, hi] the same way,
// copying each read-only posting view.
func treeRange(tr *Tree, lo, hi string, limit int) []posting {
	var out []posting
	fn := func(k string, ids []int64) bool {
		if limit > 0 && len(out) == limit {
			return false
		}
		out = append(out, posting{k, slices.Clone(ids)})
		return true
	}
	if lo == "" && hi == "" {
		tr.Ascend(fn)
	} else {
		tr.AscendRange(lo, hi, fn)
	}
	return out
}

func samePostings(a, b []posting) bool {
	return slices.EqualFunc(a, b, func(x, y posting) bool {
		return x.key == y.key && slices.Equal(x.ids, y.ids)
	})
}

// checkTree compares every observable of tr with m.
func checkTree(t testing.TB, tr *Tree, m model) {
	t.Helper()
	total := 0
	for k, ids := range m {
		total += len(ids)
		if got := tr.Get(k); !slices.Equal(got, ids) {
			t.Fatalf("Get(%q) = %v, want %v", k, got, ids)
		}
	}
	if tr.Len() != total {
		t.Fatalf("Len = %d, want %d", tr.Len(), total)
	}
	if got, want := treeRange(tr, "", "", 0), m.rangeOf("", "", 0); !samePostings(got, want) {
		t.Fatalf("Ascend yields %d postings, want %d (or they differ)", len(got), len(want))
	}
}

// fuzzKey maps a byte pair to a key. Even families are fixed-width,
// so numeric and key order agree and runs load the tree's edges; odd
// families are variable-width, so numeric runs interleave in key
// order and separators land inside them.
func fuzzKey(family, x int) string {
	if family%2 == 0 {
		return fmt.Sprintf("k%05d", x)
	}
	return fmt.Sprintf("k%d", x)
}

// runOps decodes data into tree operations, three bytes each, applies
// them to a tree and the model, and checks every read against the
// model:
//
//	op%6 == 0     Insert(key(a), id), duplicates and repeated ids included
//	op%6 == 1     InsertUnique(key(a), id), which adds only a new key
//	op%6 == 2     Delete a posting of key(a), or a missing one
//	op%6 == 3     Get(key(a))
//	op%6 == 4     AscendRange(key(a), key(b)) stopping after op>>4 keys
//	op%6 == 5     insert a run of b keys from key(a), descending if op&8
func runOps(t testing.TB, data []byte) {
	tr, m := New(), model{}
	next := int64(0)
	for i := 0; i+2 < len(data); i += 3 {
		op, a, b := int(data[i]), int(data[i+1]), int(data[i+2])
		fam := op >> 3
		key := fuzzKey(fam, a<<4|b&15)
		switch op % 6 {
		case 1:
			added := tr.InsertUnique(key, next)
			if want := len(m[key]) == 0; added != want {
				t.Fatalf("InsertUnique(%q) = %v, want %v", key, added, want)
			}
			if added {
				m.insert(key, next)
			}
			next++
		case 0:
			id := next
			if b&16 != 0 && len(m[key]) > 0 {
				id = m[key][0] // a repeated (key, id) posting
			}
			next++
			tr.Insert(key, id)
			m.insert(key, id)
		case 2:
			id := int64(-1)
			if ids := m[key]; len(ids) > 0 && b&16 == 0 {
				id = ids[b%len(ids)]
			}
			if got, want := tr.Delete(key, id), m.delete(key, id); got != want {
				t.Fatalf("Delete(%q, %d) = %v, want %v", key, id, got, want)
			}
		case 3:
			if got, want := tr.Get(key), m[key]; !slices.Equal(got, want) {
				t.Fatalf("Get(%q) = %v, want %v", key, got, want)
			}
		case 4:
			lo, hi := key, fuzzKey(fam, b<<4|a&15)
			if got, want := treeRange(tr, lo, hi, op>>4), m.rangeOf(lo, hi, op>>4); !samePostings(got, want) {
				t.Fatalf("AscendRange(%q, %q) limit %d = %v, want %v", lo, hi, op>>4, got, want)
			}
		case 5:
			for j := 0; j < b; j++ {
				x := a<<4 + j
				if op&8 != 0 {
					x = a<<4 + b - j
				}
				k := fuzzKey(fam, x)
				tr.Insert(k, next)
				m.insert(k, next)
				next++
			}
		}
	}
	checkTree(t, tr, m)
}

// TestTreeAgainstModel drives long seeded operation sequences in
// ascending, descending and random key orders, with duplicate keys
// and deletes, through the tree and the map-plus-sort reference.
func TestTreeAgainstModel(t *testing.T) {
	for _, order := range []string{"ascending", "descending", "random"} {
		t.Run(order, func(t *testing.T) {
			r := rand.New(rand.NewSource(23))
			tr, m := New(), model{}
			const n = 20_000
			for i := 0; i < n; i++ {
				var x int
				switch order {
				case "ascending":
					x = i / 3 // runs of three equal keys
				case "descending":
					x = (n - i) / 3
				default:
					x = r.Intn(n / 2)
				}
				key := fmt.Sprintf("k%06d", x)
				tr.Insert(key, int64(i))
				m.insert(key, int64(i))
				if r.Intn(4) == 0 {
					// Delete a random live posting of a random earlier key.
					dk := fmt.Sprintf("k%06d", r.Intn(x+1))
					if ids := m[dk]; len(ids) > 0 {
						id := ids[r.Intn(len(ids))]
						if got, want := tr.Delete(dk, id), m.delete(dk, id); got != want {
							t.Fatalf("Delete(%q, %d) = %v, want %v", dk, id, got, want)
						}
					}
				}
				if i%997 == 0 {
					lo := fmt.Sprintf("k%06d", r.Intn(n/2))
					hi := fmt.Sprintf("k%06d", r.Intn(n/2))
					limit := r.Intn(50)
					if got, want := treeRange(tr, lo, hi, limit), m.rangeOf(lo, hi, limit); !samePostings(got, want) {
						t.Fatalf("AscendRange(%q, %q) limit %d differs from the model", lo, hi, limit)
					}
				}
			}
			checkTree(t, tr, m)
			if tr.Depth() < 3 {
				t.Errorf("depth = %d, want >= 3 (interior splits exercised)", tr.Depth())
			}
		})
	}
}

// FuzzTreeAgainstModel checks arbitrary operation sequences (see
// runOps) against the reference model.
func FuzzTreeAgainstModel(f *testing.F) {
	f.Add([]byte{5, 0, 200, 13, 20, 200, 2, 1, 3, 4, 0, 255})
	f.Add([]byte{0, 7, 7, 0, 7, 7, 0, 7, 23, 2, 7, 0, 2, 7, 1, 3, 7, 7})
	f.Add([]byte{13, 3, 255, 13, 1, 255, 5, 2, 255, 12, 0, 255, 2, 9, 4, 36, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) { runOps(t, data) })
}
