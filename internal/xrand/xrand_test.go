package xrand

import (
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if New(1).Uint64() == New(2).Uint64() {
		t.Error("different seeds collide immediately")
	}
}

func TestIntnRange(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(7)
			if v < 0 || v >= 7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) must panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(9)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v", f)
		}
	}
}

func TestPickShuffle(t *testing.T) {
	r := New(5)
	items := []int{1, 2, 3, 4, 5}
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		seen[Pick(r, items)] = true
	}
	if len(seen) != 5 {
		t.Errorf("Pick coverage = %v", seen)
	}
	cp := append([]int{}, items...)
	Shuffle(r, cp)
	sum := 0
	for _, v := range cp {
		sum += v
	}
	if sum != 15 {
		t.Error("Shuffle lost elements")
	}
}
