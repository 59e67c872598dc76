// Package btree implements an in-memory B+tree keyed by string with
// int64 row-id postings. It backs the ordered secondary indexes of the
// storage engine: point lookups, ordered iteration (for streaming
// GROUP BY), and range scans. Duplicate keys are supported; each key
// holds a list of row ids.
//
// A leaf stores one row id inline per key, in an ids slice parallel to
// its keys; only a key holding more than one id gets a posting list of
// its own. The postings handed to callers (Get, Ascend, AscendRange)
// are read-only views into the tree, valid until its next mutation.
package btree

import (
	"slices"
	"sort"
)

const (
	// degree is the maximum number of keys per node; chosen small
	// enough to exercise splits in tests, large enough to keep depth
	// shallow for realistic table sizes.
	degree = 64
)

// Tree is a B+tree from string keys to sets of int64 row ids.
type Tree struct {
	root *node
	size int // number of (key,id) postings
}

type node struct {
	leaf     bool
	keys     []string
	children []*node // interior nodes
	// Leaf nodes: ids[i] is key i's row id when it has exactly one;
	// lists, allocated on a leaf's first duplicate key, holds the
	// posting list of each key with more than one id (nil otherwise).
	ids   []int64
	lists [][]int64
	next  *node // leaf chain for ordered iteration
}

// New returns an empty tree.
func New() *Tree {
	return &Tree{root: &node{leaf: true}}
}

// Len returns the number of postings (key/id pairs) in the tree.
func (t *Tree) Len() int { return t.size }

// Insert adds a posting for key.
func (t *Tree) Insert(key string, id int64) {
	r := t.root
	if len(r.keys) >= degree {
		newRoot := &node{children: []*node{r}}
		newRoot.splitChild(0, key)
		t.root = newRoot
	}
	t.root.insert(key, id)
	t.size++
}

// InsertUnique adds a posting for key unless the tree holds key
// already; it reports whether it added one, and leaves the tree
// untouched when it did not. The duplicate probe and the insert share
// one descent. When a node on the path is full, the insert goes
// through Insert, so the tree splits exactly as Insert would split it.
func (t *Tree) InsertUnique(key string, id int64) bool {
	n := t.root
	full := len(n.keys) >= degree
	for !n.leaf {
		n = n.children[n.descend(key)]
		full = full || len(n.keys) >= degree
	}
	i := len(n.keys)
	if i == 0 || n.keys[i-1] >= key {
		i = sort.SearchStrings(n.keys, key)
	}
	if i < len(n.keys) && n.keys[i] == key {
		return false
	}
	if full {
		t.Insert(key, id)
		return true
	}
	n.insertAt(i, key, id)
	t.size++
	return true
}

// descend returns the child index to follow for key: the first child
// whose separator is strictly greater than key. Keys equal to a
// separator live in the RIGHT child (a leaf split keeps the separator
// key as the right node's first key), so equality moves right.
func (n *node) descend(key string) int {
	if k := len(n.keys); k > 0 && n.keys[k-1] <= key {
		return k // an ascending load always goes right
	}
	return sort.Search(len(n.keys), func(j int) bool { return n.keys[j] > key })
}

// posting returns key i's row ids as a read-only view.
func (n *node) posting(i int) []int64 {
	if n.lists != nil && n.lists[i] != nil {
		return n.lists[i]
	}
	return n.ids[i : i+1 : i+1]
}

func (n *node) insert(key string, id int64) {
	if n.leaf {
		i := sort.SearchStrings(n.keys, key)
		if i < len(n.keys) && n.keys[i] == key {
			if n.lists == nil {
				n.lists = make([][]int64, len(n.keys), cap(n.keys))
			}
			if n.lists[i] == nil {
				n.lists[i] = []int64{n.ids[i], id}
			} else {
				n.lists[i] = append(n.lists[i], id)
			}
			return
		}
		n.insertAt(i, key, id)
		return
	}
	i := n.descend(key)
	if len(n.children[i].keys) >= degree {
		n.splitChild(i, key)
		if key >= n.keys[i] {
			i++
		}
	}
	n.children[i].insert(key, id)
}

// insertAt inserts a new key with its single row id at leaf slot i.
func (n *node) insertAt(i int, key string, id int64) {
	n.keys = slices.Insert(n.keys, i, key)
	n.ids = slices.Insert(n.ids, i, id)
	if n.lists != nil {
		n.lists = slices.Insert(n.lists, i, nil)
	}
}

// splitChild splits the full i-th child ahead of inserting key,
// promoting a separator. A leaf splits in half, except when key sorts
// after all of its keys: then the leaf stays full and key starts a new
// empty right sibling, so an ascending load fills its leaves.
func (n *node) splitChild(i int, key string) {
	child := n.children[i]
	mid := len(child.keys) / 2
	var sep string
	var right *node
	if child.leaf {
		if key > child.keys[len(child.keys)-1] {
			mid = len(child.keys)
		}
		right = newLeaf(child, mid)
		right.next = child.next
		child.next = right
		sep = key
		if mid < len(child.keys) {
			sep = child.keys[mid]
		}
		clear(child.keys[mid:])
		child.keys = child.keys[:mid]
		child.ids = child.ids[:mid]
		if child.lists != nil {
			clear(child.lists[mid:])
			child.lists = child.lists[:mid]
		}
	} else {
		right = &node{}
		sep = child.keys[mid]
		right.keys = append(right.keys, child.keys[mid+1:]...)
		right.children = append(right.children, child.children[mid+1:]...)
		clear(child.keys[mid:])
		clear(child.children[mid+1:])
		child.keys = child.keys[:mid]
		child.children = child.children[:mid+1]
	}
	n.keys = append(n.keys, "")
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = sep
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
}

// newLeaf returns a leaf holding child's entries from mid on, its
// slices allocated once at full capacity.
func newLeaf(child *node, mid int) *node {
	right := &node{leaf: true, keys: make([]string, 0, degree), ids: make([]int64, 0, degree)}
	right.keys = append(right.keys, child.keys[mid:]...)
	right.ids = append(right.ids, child.ids[mid:]...)
	if child.lists != nil {
		for _, l := range child.lists[mid:] {
			if l != nil {
				right.lists = make([][]int64, len(right.keys), degree)
				copy(right.lists, child.lists[mid:])
				break
			}
		}
	}
	return right
}

// leafFor returns the leaf that holds key if the tree has it.
func (t *Tree) leafFor(key string) *node {
	n := t.root
	for !n.leaf {
		n = n.children[n.descend(key)]
	}
	return n
}

// Get returns the posting list for key, or nil. The list is a
// read-only view, valid until the tree's next mutation: a caller that
// mutates the tree while using it must copy it first.
func (t *Tree) Get(key string) []int64 {
	n := t.leafFor(key)
	i := sort.SearchStrings(n.keys, key)
	if i < len(n.keys) && n.keys[i] == key {
		return n.posting(i)
	}
	return nil
}

// Delete removes one posting (key, id). It reports whether the posting
// existed. Underflow is tolerated (nodes may become sparse); for the
// workloads the engine runs — bulk load then read-mostly — rebalancing
// on delete is not worth its complexity.
func (t *Tree) Delete(key string, id int64) bool {
	n := t.leafFor(key)
	i := sort.SearchStrings(n.keys, key)
	if i >= len(n.keys) || n.keys[i] != key {
		return false
	}
	if n.lists != nil && n.lists[i] != nil {
		ids := n.lists[i]
		for j, v := range ids {
			if v == id {
				ids = slices.Delete(ids, j, j+1)
				if len(ids) == 1 {
					n.ids[i], ids = ids[0], nil
				}
				n.lists[i] = ids
				t.size--
				return true
			}
		}
		return false
	}
	if n.ids[i] != id {
		return false
	}
	n.keys = slices.Delete(n.keys, i, i+1)
	n.ids = slices.Delete(n.ids, i, i+1)
	if n.lists != nil {
		n.lists = slices.Delete(n.lists, i, i+1)
	}
	t.size--
	return true
}

// Ascend calls fn for each (key, ids) pair in ascending key order
// until fn returns false. ids is a read-only view, valid until the
// tree's next mutation; fn must not mutate the tree.
func (t *Tree) Ascend(fn func(key string, ids []int64) bool) {
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	for n != nil {
		for i, k := range n.keys {
			if !fn(k, n.posting(i)) {
				return
			}
		}
		n = n.next
	}
}

// AscendRange calls fn for keys in [lo, hi] (inclusive bounds; empty
// string bounds mean unbounded) in ascending order until fn returns
// false. ids is a read-only view, valid until the tree's next
// mutation; fn must not mutate the tree.
func (t *Tree) AscendRange(lo, hi string, fn func(key string, ids []int64) bool) {
	// Descend toward the leftmost leaf that can contain lo: keys equal
	// to a separator sit in the right child.
	n := t.leafFor(lo)
	for n != nil {
		for i, k := range n.keys {
			if k < lo {
				continue
			}
			if hi != "" && k > hi {
				return
			}
			if !fn(k, n.posting(i)) {
				return
			}
		}
		n = n.next
	}
}

// Keys returns the number of distinct keys (for stats).
func (t *Tree) Keys() int {
	count := 0
	t.Ascend(func(string, []int64) bool { count++; return true })
	return count
}

// Depth returns the height of the tree (1 for a single leaf).
func (t *Tree) Depth() int {
	d := 1
	n := t.root
	for !n.leaf {
		d++
		n = n.children[0]
	}
	return d
}
