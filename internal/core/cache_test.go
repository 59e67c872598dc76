package core

import "testing"

// TestParseCacheHitsAndBounds pins the parse adapter's keying and cost
// model: exact statement text is the key and an entry costs entryCost.
func TestParseCacheHitsAndBounds(t *testing.T) {
	c := NewParseCache(1 << 20)
	const stmt = "SELECT * FROM t WHERE id = 1"
	first := c.Parse(stmt)
	again := c.Parse(stmt)
	if first == nil || again == nil {
		t.Fatal("Parse returned nil statement")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
	if st.Bytes != entryCost(stmt) {
		t.Errorf("bytes = %d, want %d", st.Bytes, entryCost(stmt))
	}
	if got := st.HitRate(); got != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", got)
	}
}
